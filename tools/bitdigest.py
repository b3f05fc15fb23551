"""Bit digest: one sha256 over the outputs, gradients and counters of glakit.

Run from the root of a checkout; glakit is imported from that checkout's
``src``, as ``perfbench/run.py`` does:

    python tools/bitdigest.py

Two checkouts that print the same digest on the same machine compute the
same bits and the same counters over the grid below.  Two more lines
follow the combined digest: ``bits``, over the arrays, check report rows
and raised messages only, and ``counters``, over the CostReports and ``predict_cost`` only, so
a change that moves the counts by design can show that the bits did not
move.  For each config
and both chunk policies the digest covers the chunkwise forward's O, its
chunk states and CostReport, the backward's five gradients and
CostReport (or, for either pass, the message it raised), and
``predict_cost`` for both passes.  On every config but the anchor, where
the parallel form's O(L^2) loops and the FD oracle's O(L^2) batched steps
would take most of the run, it also covers the judges: the parallel
form's O and five gradients, ``forward_recurrent``'s O, and the five
gradients of ``backward_recurrent_exact`` and of ``backward_recurrent_fd``
(at its default eps), and the report rows of ``check_equivalence`` and
``check_causality`` at the config's chunk size: each row's name, errors
and verdict, not its elapsed time.  The config after the anchor, whose
backward groups four 16-row chunks and ends in a ragged chunk, skips the
judges too: it pins the chunkwise passes only.  BLAS runs one thread unless the
environment sets otherwise, so the digest does not depend on the core
count.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glakit.checks import check_causality, check_equivalence  # noqa: E402
from glakit.chunkwise import (ChunkPolicy, backward_chunkwise,  # noqa: E402
                              forward_chunkwise, predict_cost)
from glakit.fixtures import ModelKind, SplitMix64, make_instance  # noqa: E402
from glakit.gates import ChunkPlan  # noqa: E402
from glakit.parallel import backward_parallel, forward_parallel  # noqa: E402
from glakit.recurrent import (backward_recurrent_exact,  # noqa: E402
                              backward_recurrent_fd, forward_recurrent)
from glakit.tensor import SeqTensor  # noqa: E402

# (name, kind, L, dk, dv, seed, gate floor, chunk size)
GRID = (
    ("anchor", "general", 4096, 64, 64, 1, 0.5, 64),
    ("grouped backward", "general", 1100, 8, 8, 2, 0.5, 16),
    *((f"general C={C}", "general", 300, 5, 4, 7, 0.5, C) for C in (16, 11, 64, 73, 131)),
    ("L=1", "general", 1, 3, 2, 3, 0.5, 4),
    ("retnet", "retnet", 100, 4, 3, 5, 0.5, 16),
    ("vanilla", "vanilla", 100, 4, 3, 6, 0.5, 16),
    ("gla_beta_one", "gla_beta_one", 100, 4, 3, 8, 0.5, 16),
    ("floor 1e-12", "general", 200, 3, 3, 104, 1e-12, 64),  # raises
    ("floor 1e-300", "general", 24, 2, 2, 9, 1e-300, 2),  # raises
)
GRADS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")
NO_JUDGES = ("anchor", "grouped backward")


def _digest_config(bits, counts, kind, L, dk, dv, seed, floor, C, judges: bool) -> None:
    inst = make_instance(ModelKind(kind), L, dk, dv, seed=seed, gate_floor=floor)
    plan = ChunkPlan(L, C)
    dO = SeqTensor(SplitMix64(seed + 1).fill_pm1(L, dv))
    for mode in ("materialize", "recompute"):
        pol = ChunkPolicy(mode)
        try:
            O, states, rep = forward_chunkwise(inst, plan, pol)
            bits(O.data.tobytes())
            if states is not None:
                bits(states.tobytes())
            counts(repr(rep).encode())
        except ValueError as exc:
            bits(str(exc).encode())
        try:
            g, rep = backward_chunkwise(inst, dO, plan, pol)
            for f in GRADS:
                bits(getattr(g, f).tobytes())
            counts(repr(rep).encode())
        except ValueError as exc:
            bits(str(exc).encode())
        for pass_ in ("forward", "backward"):
            counts(repr(predict_cost(L, dk, dv, plan, pol, pass_)).encode())
    if judges:
        for forward, backward in ((forward_parallel, backward_parallel),
                                  (lambda inst: forward_recurrent(inst).O, backward_recurrent_exact),
                                  (None, backward_recurrent_fd)):
            try:
                if forward is not None:
                    bits(forward(inst).data.tobytes())
                g = backward(inst, dO)
                for f in GRADS:
                    bits(getattr(g, f).tobytes())
            except ValueError as exc:
                bits(str(exc).encode())
        reports = check_equivalence(inst, chunk_sizes=(C,))
        try:
            reports.append(check_causality(inst, chunk=C))
        except ValueError as exc:  # L = 1
            bits(str(exc).encode())
        for r in reports:
            bits(repr((r.name, r.max_abs_err, r.max_rel_err, r.passed)).encode())


def main() -> int:
    h, hb, hc = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()

    def bits(b: bytes) -> None:
        h.update(b)
        hb.update(b)

    def counts(b: bytes) -> None:
        h.update(b)
        hc.update(b)

    for name, *cfg in GRID:
        _digest_config(bits, counts, *cfg, judges=name not in NO_JUDGES)
    print(h.hexdigest())
    print(f"bits {hb.hexdigest()}")
    print(f"counters {hc.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
