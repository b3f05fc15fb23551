"""Tests of the benchmark itself, at a tiny shape.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the library's test collection on purpose: they pin the
benchmark's metric names to the library's current function names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import spans  # noqa: E402
from glakit import chunkwise  # noqa: E402
from glakit.gates import ChunkPlan  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Ragged last chunk (12 = 5 + 5 + 2) and dk != dv.
TINY = bench.Workload("tiny", bench.Shape(12, 3, 2, 5), bench.Shape(6, 2, 2, 3))
COUNTERS = ("fixtures.draws", "tensorfile.bytes", "gates.calls", "tensor.mm_calls.",
            "tensor.mm_flops.", "chunkwise.flops.", "chunkwise.state_", "chunkwise.recompute_passes.",
            "recurrent.fd_forwards")


def run(tmp_path, trace, seconds=0.3, seed=5):
    return bench.run_workload(TINY, seed, seconds, trace, tmp_path)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(tmp_path, trace, section):
    out = run(tmp_path, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert not (tmp_path / bench.WORKDIR).exists()


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_exact_counters_repeat_and_match_predict_cost(tmp_path):
    a = run(tmp_path, True)["metrics"]
    b = run(tmp_path, True)["metrics"]
    exact = [k for k in a if k.startswith(COUNTERS)]
    assert len(exact) >= 20
    assert {k: a[k]["value"] for k in exact} == {k: b[k]["value"] for k in exact}
    plan = ChunkPlan(12, 5)
    for pass_, name in (("fwd", "forward"), ("bwd", "backward")):
        for mode in bench.POLICIES:
            want = chunkwise.predict_cost(12, 3, 2, plan, chunkwise.ChunkPolicy(mode), name)
            assert a[f"chunkwise.flops.{pass_}.{mode}"]["value"] == want.flops
    s = TINY.verify
    assert a["recurrent.fd_forwards"]["value"] == 2 * s.L * (3 * s.dk + 2 * s.dv)


def _nudged_after(first_calls, fn, how):
    calls = {"n": 0}

    def sabotaged(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] <= first_calls:
            return out
        if how in ("ulp", "scale"):
            O = np.array(out[0].data)
            if how == "ulp":
                O[0, 0] = np.nextafter(O[0, 0], np.inf)
            else:
                O *= 1.0 + 1e-6
            return (type(out[0])(O), *out[1:])
        cost = out[-1]
        return (*out[:-1], type(cost)(cost.flops + 1, cost.state_writes,
                                      cost.state_reads, cost.recompute_passes))
    return sabotaged


# One ulp after the verified first call must miss the bitwise check; a 1e-6
# error from the first call on must miss the gate's 1e-9 reference check.
@pytest.mark.parametrize("first_calls,how", [(1, "ulp"), (1, "counters"), (0, "scale")])
def test_sabotaged_forward_raises_error_rate(tmp_path, monkeypatch, first_calls, how):
    monkeypatch.setattr(chunkwise, "forward_chunkwise",
                        _nudged_after(first_calls, chunkwise.forward_chunkwise, how))
    out = run(tmp_path, False)
    assert out["failed"] / out["attempted"] > 0
    assert not out["correct"]


def test_missing_binding_is_reported_absent(tmp_path, monkeypatch):
    renamed = tuple((m, "mm_renamed" if a == "mm" else a, n) for m, a, n in spans.BINDINGS)
    monkeypatch.setattr(spans, "BINDINGS", renamed)
    out = run(tmp_path, True)
    assert out["correct"]
    m = out["metrics"]
    assert m["tensor.mm_ms.fwd.materialize"]["value"] is None
    assert m["chunkwise.self_ms.bwd.recompute"]["value"] is None
    assert m["gates.decays_ms.fwd.materialize"]["value"] is not None
    assert chunkwise.mm.__name__ == "mm"  # the original is back


def test_summary_reports_the_highest_percentile_with_ten_beyond():
    s = bench.summarize([float(x) for x in range(1, 101)])
    assert s["n"] == 100 and s["median"] == 50.5 and s["p_hi"] == "p90"
    assert "p_hi" not in bench.summarize([1.0] * 19)


def test_command_line_prints_one_result_line(tmp_path):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                        "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    assert env["GLA_THREADS"] is None and env["seed"] == 3 and env["nproc"] >= 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "anchor",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
