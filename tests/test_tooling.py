"""Tooling: the benchmark's traced run rebinds library names that must all exist, its
calls into the library run, the test settings report every verdict when a property
test fails, and every mutant of the mutation audit quotes its file and names a test."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(monkeypatch, name: str, path: Path):
    """Import the file at path as module name, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_perfbench_span_bindings_resolve(monkeypatch):
    # a binding that no longer resolves turns its per-layer metrics to null
    spans = _load(monkeypatch, "perfbench_spans", PERFBENCH / "spans.py")
    targets = [(mod, attr) for mod, attr, _ in spans.BINDINGS]
    targets.append(("glakit.cost", "mm_flops"))  # spans meters tensor.mm with it
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_perfbench_calls_into_the_library_run(monkeypatch, tmp_path):
    # the benchmark drives glakit from outside; a library change that breaks
    # one of these calls fails here, not in a benchmark run
    _load(monkeypatch, "spans", PERFBENCH / "spans.py")  # bench.py imports it by this name
    bench = _load(monkeypatch, "bench", PERFBENCH / "bench.py")
    wl = bench.Workload("tiny", bench.Shape(7, 3, 2, 3), bench.Shape(7, 3, 2, 3))
    inst, nbytes = bench.gen_and_load(wl, 5, tmp_path, bench.NullTracer())
    assert nbytes > 0
    assert [a.shape for a in bench._inputs(inst)] == [(7, 3), (7, 3), (7, 2), (7, 3), (7, 2)]
    dO = bench.make_cotangent(5, inst.L, inst.dv)
    plan = bench.ChunkPlan(inst.L, wl.step.C)
    for pass_ in bench.PASSES:
        for mode in bench.POLICIES:
            p = bench.Pass(pass_, mode, inst, dO, plan)
            result = p.call()
            assert p.check(result) is None, p.label
            outputs = p.outputs(result)
            assert outputs and all(isinstance(a, np.ndarray) for a in outputs), p.label


PYPROJECT = ROOT / "pyproject.toml"
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


def test_every_mutant_quotes_its_file_once_and_names_a_test(monkeypatch):
    # a mutant whose old string no longer matches, or whose killer is gone,
    # only shows up as malformed when the minute-long audit is run
    mutants = _load(monkeypatch, "mutants", ROOT / "tools" / "mutants.py")
    tests = {}
    bad = []
    for m in mutants.MUTANTS:
        n = (ROOT / "src" / "glakit" / m.file).read_text().count(m.old)
        if n != 1:
            bad.append(f"{m.name}: old string occurs {n} times in {m.file}")
        path, name = m.killer.split("::")
        if path not in tests:
            tree = ast.parse((ROOT / path).read_text())
            tests[path] = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        if name.split("[")[0] not in tests[path]:
            bad.append(f"{m.name}: no test {m.killer}")
    assert bad == []
