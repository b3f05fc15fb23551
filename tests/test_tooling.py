"""Tooling: the benchmark's traced run rebinds library names that must all exist, and
the test settings report every verdict when a property test fails."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_perfbench_span_bindings_resolve():
    # a binding that no longer resolves turns its per-layer metrics to null
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(mod, attr) for mod, attr, _ in spans.BINDINGS]
    targets.append(("glakit.cost", "mm_flops"))  # spans meters tensor.mm with it
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PROPERTY_FAILS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain():
    pass
'''


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # the repo's warning filters turn warnings into errors; hypothesis's
    # failure report must not raise one inside a pytest hook, or pytest
    # stops with INTERNALERROR (exit 3) and the tests after it never run
    (tmp_path / "test_prop.py").write_text(PROPERTY_FAILS)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_prop.py"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout
