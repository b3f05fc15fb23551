"""The benchmark's traced run rebinds library names; they must all exist."""

import importlib
import importlib.util
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
