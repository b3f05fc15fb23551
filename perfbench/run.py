"""glakit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload anchor --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; glakit is imported from its
``src`` directory.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
The lines before it record the environment, every timing's sample count,
median, quartiles and high percentile, and any failed operation.
Exits 2 without a result when the checkout has no glakit to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cap_threads() -> str | None:
    """Cap BLAS threads at nproc and unset GLA_THREADS (serial FD oracle).

    Must run before numpy is imported.  Returns GLA_THREADS as launched.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return os.environ.pop("GLA_THREADS", None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    outer_gla_threads = _cap_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import glakit
    except ImportError as exc:
        print(f"error: cannot import glakit from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(glakit.__file__).resolve().is_relative_to(src):
        print(f"error: glakit resolved to {glakit.__file__}, not under {src}", file=sys.stderr)
        return 2

    import bench
    wl = bench.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")

    out = bench.run_workload(wl, args.seed, args.seconds, bool(args.trace), ROOT,
                             outer_gla_threads)
    print("env " + json.dumps(out["env"], sort_keys=True))
    for label, t in out["timings"].items():
        print("timing " + label + " " + json.dumps(t, sort_keys=True))
    for problem in out["problems"]:
        print("FAILED " + problem.replace("\n", " | "))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
