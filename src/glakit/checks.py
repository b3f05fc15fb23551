"""Reusable verification procedures: equivalence, gradcheck, causality.

Checks measure, they never throw: each returns CheckReport rows so a whole
suite can run to completion and be summarized.  A form whose arithmetic
fails (a chunk whose decay underflows fp64 yields non-finite values, which
the result records reject with ValueError) gets a FAIL row with infinite
error.  The comparison metric everywhere is

    rel_err(a, b) = max|a - b| / max(1e-8, max|a|, max|b|).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import chunkwise, parallel, recurrent
from .chunkwise import ChunkPolicy, backward_chunkwise, forward_chunkwise
from .fixtures import SplitMix64
from .gates import ChunkPlan, GateSeq
from .parallel import backward_parallel, forward_parallel
from .recurrent import (GlaInstance, backward_recurrent_exact,
                        backward_recurrent_fd, forward_recurrent)
from .tensor import SeqTensor

__all__ = [
    "CheckReport",
    "rel_err",
    "max_abs",
    "check_equivalence",
    "check_gradients",
    "check_causality",
]


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    denom = max(1e-8, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool
    elapsed: float

    @classmethod
    def from_arrays(cls, name: str, a: np.ndarray | None, b: np.ndarray | None,
                    tol: float, t0: float) -> "CheckReport":
        """Compare a with b; None stands for a computation that failed."""
        if a is None or b is None:
            return cls(name, np.inf, np.inf, tol, False, time.perf_counter() - t0)
        r = rel_err(a, b)
        return cls(name, max_abs(a, b), r, tol, r <= tol, time.perf_counter() - t0)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name} max_rel_err={self.max_rel_err:.3e} "
                f"tol={self.tolerance:.1e} {status}")


def _measured(fn):
    """fn(), or None when the arithmetic fails and the result is rejected."""
    try:
        return fn()
    except ValueError:
        return None


def _chunkwise_O(inst: GlaInstance, plan: ChunkPlan, policy: str) -> np.ndarray | None:
    return _measured(lambda: forward_chunkwise(inst, plan, ChunkPolicy(policy))[0].data)


def check_equivalence(inst: GlaInstance, chunk_sizes, tol: float = 1e-9) -> list[CheckReport]:
    """All forms against the recurrent oracle, plus materialize vs recompute.

    The two policies must agree bitwise (tolerance 0).
    """
    reports = []
    ref = forward_recurrent(inst).O.data

    t0 = time.perf_counter()
    par = forward_parallel(inst).data
    reports.append(CheckReport.from_arrays("parallel_vs_recurrent", par, ref, tol, t0))

    for C in chunk_sizes:
        plan = ChunkPlan(inst.L, C)
        t0 = time.perf_counter()
        om = _chunkwise_O(inst, plan, "materialize")
        reports.append(CheckReport.from_arrays(
            f"chunkwise_C{C}_vs_recurrent", om, ref, tol, t0))
        t0 = time.perf_counter()
        orc = _chunkwise_O(inst, plan, "recompute")
        reports.append(CheckReport.from_arrays(
            f"policy_equivalence_C{C}", om, orc, 0.0, t0))
    return reports


def _shift_gate_boundary(inst: GlaInstance, eps: float) -> GlaInstance:
    """Move log-gates at the domain boundary to interior points.

    Central differences on a log-gate at 0 would step outside (0, 1]; the
    base point is shifted to -2*eps so both perturbed evaluations stay in
    the valid domain.  Closed forms are evaluated at the same shifted
    point, so the comparison is apples to apples.
    """
    la = np.minimum(inst.gates.log_alpha, -2.0 * eps)
    lb = np.minimum(inst.gates.log_beta, -2.0 * eps)
    return GlaInstance(inst.Q, inst.K, inst.V, GateSeq(la, lb))


def _grad_dO(L: int, dv: int) -> SeqTensor:
    """Deterministic cotangent for gradient checks (fixed splitmix stream)."""
    rng = SplitMix64(0xD0)
    return SeqTensor(rng.fill_pm1(L, dv))


_GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")


def _plan(L: int, chunk: int | None) -> ChunkPlan:
    """The chunkwise plan a check runs; by default about a third of L, at least 2."""
    return ChunkPlan(L, chunk if chunk is not None else max(2, (L + 2) // 3))


def check_gradients(inst: GlaInstance, eps: float = 1e-5, tol: float = 1e-6,
                    chunk: int | None = None,
                    flip_dlogb_sign: bool = False) -> list[CheckReport]:
    """Every analytic backward against the finite-difference oracle.

    flip_dlogb_sign negates the analytic dlog_alpha before comparing; it
    exists to demonstrate that the oracle actually discriminates the sign
    convention of the dlogb identity.
    """
    shifted = _shift_gate_boundary(inst, eps)
    dO = _grad_dO(shifted.L, shifted.dv)
    fd = backward_recurrent_fd(shifted, dO, eps)
    plan = _plan(shifted.L, chunk)

    impls = {"recurrent_exact": lambda: backward_recurrent_exact(shifted, dO)}
    impls["parallel"] = lambda: backward_parallel(shifted, dO)
    impls["chunkwise_materialize"] = lambda: backward_chunkwise(
        shifted, dO, plan, ChunkPolicy("materialize"))[0]
    impls["chunkwise_recompute"] = lambda: backward_chunkwise(
        shifted, dO, plan, ChunkPolicy("recompute"))[0]

    reports = []
    for impl_name, run in impls.items():
        t0 = time.perf_counter()
        bundle = _measured(run)
        for field in _GRAD_FIELDS:
            got = None if bundle is None else getattr(bundle, field).data
            if flip_dlogb_sign and field == "dlog_alpha" and got is not None:
                got = -got
            want = getattr(fd, field).data
            reports.append(CheckReport.from_arrays(
                f"grad_{impl_name}_{field}", got, want, tol, t0))
            t0 = time.perf_counter()
    return reports


def check_causality(inst: GlaInstance, trials: int = 20, seed: int = 7,
                    chunk: int | None = None, tol: float = 1e-12) -> CheckReport:
    """Future rows must not move past outputs.

    The recurrent form must be bit-exact on the untouched prefix; parallel
    and chunkwise must stay within tol.  Reports the worst deviation over
    all trials and forms (a nonzero recurrent deviation fails outright).

    Each trial draws its cut, then fresh rows from the cut on for Q, K, V,
    log_alpha and log_beta, in that order, in one SplitMix stream.  The
    draws of a group of B trials go straight into B stacked copies of the
    instance's arrays (fresh draws are finite and the log-gates <= 0, so
    nothing is validated), and each form's raw kernel runs once per group
    on the stack; each trial's rows keep the bits of its own public run.
    A trial whose chunkwise O has a non-finite entry anywhere, which the
    public form would reject with a ValueError, fails that form with an
    infinite error.  A numpy op costs ~1 us of call overhead against
    ~1-3 ns per element, so B = max(1, min(trials, 2**15 // (L (dk + dv))))
    gives each op up to 2**15 elements: enough to hide the overhead, while
    each of a group's arrays stays within 256 KiB (or one trial's size,
    when that is larger).
    """
    if inst.L < 2:
        raise ValueError("causality check needs L >= 2")
    if trials < 1:
        raise ValueError(f"causality check needs trials >= 1, got {trials}")
    rng = SplitMix64(seed)
    plan = _plan(inst.L, chunk)
    group = max(1, min(trials, 2**15 // (inst.L * (inst.dk + inst.dv))))

    t0 = time.perf_counter()
    ref_rec = forward_recurrent(inst).O.data
    ref_par = forward_parallel(inst).data
    ref_chk = _chunkwise_O(inst, plan, "materialize")

    worst_abs = 0.0
    worst_rel = 0.0
    exact_ok = True
    log_half = np.log(0.5)
    for first in range(0, trials, group):
        stacked = [np.stack([a] * min(group, trials - first)) for a in inst.arrays]
        Q, K, V, la, lb = stacked
        cuts = []
        for b in range(len(Q)):
            cut = 1 + rng.next_u64() % (inst.L - 1)
            n = inst.L - cut
            Q[b, cut:] = rng.fill_pm1(n, inst.dk)
            K[b, cut:] = rng.fill_pm1(n, inst.dk)
            V[b, cut:] = rng.fill_pm1(n, inst.dv)
            la[b, cut:] = rng.fill_log_gate(n, inst.dk, log_half)
            lb[b, cut:] = rng.fill_log_gate(n, inst.dv, log_half)
            cuts.append(cut)
        with np.errstate(all="ignore"):
            recs, _ = recurrent._forward_raw(*stacked)
            pars = parallel._forward_raw(*stacked)
            chks, _, _ = chunkwise._forward_raw(*stacked, plan, False)
        for cut, rec, par, chk in zip(cuts, recs, pars, chks):
            if not np.array_equal(rec[:cut], ref_rec[:cut]):
                exact_ok = False
            if not np.isfinite(chk).all():
                chk = None
            for got, ref in ((par, ref_par), (chk, ref_chk)):
                if got is None or ref is None:
                    worst_abs = worst_rel = np.inf
                    continue
                worst_abs = max(worst_abs, max_abs(got[:cut], ref[:cut]))
                worst_rel = max(worst_rel, rel_err(got[:cut], ref[:cut]))
    passed = exact_ok and worst_rel <= tol
    return CheckReport("causality", worst_abs, worst_rel if exact_ok else float("inf"),
                       tol, passed, time.perf_counter() - t0)
