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
    return _errors(a, b)[0]


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return _errors(a, b)[1]


def _errors(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """max_abs(a, b) and rel_err(a, b) from one |a - b|; both 0.0 for empty arrays."""
    if a.size == 0:
        return 0.0, 0.0
    err = float(np.max(np.abs(a - b)))
    return err, err / max(1e-8, float(np.max(np.abs(a))), float(np.max(np.abs(b))))


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
        err, r = _errors(a, b)
        return cls(name, err, r, tol, r <= tol, time.perf_counter() - t0)

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
            got = None if bundle is None else getattr(bundle, field)
            if flip_dlogb_sign and field == "dlog_alpha" and got is not None:
                got = -got
            want = getattr(fd, field)
            reports.append(CheckReport.from_arrays(
                f"grad_{impl_name}_{field}", got, want, tol, t0))
            t0 = time.perf_counter()
    return reports


def _draw_trials(rng: SplitMix64, into: list[np.ndarray]) -> np.ndarray:
    """Draw a group of trials into ``into``; returns their cuts.

    into is the group's stacked Q, K, V, log_alpha and log_beta, a trial
    per element of axis 0.  Trial b's rows from its cut on get the bytes
    that next_u64 for the cut, then fill_pm1 for Q, K, V and
    fill_log_gate(.., ln 1/2) for the two gates, would give; its other rows
    are left as they are, and the stream ends where those calls would
    leave it.  The cuts come first, each followed by a skip past its rows;
    then the whole span, cut draws included, is one uniform fill, scaled
    as the fills scale it, and each trial's rows are sliced out of it.
    """
    B, L, dk = into[0].shape
    row = 3 * dk + 2 * into[2].shape[-1]  # draws per fresh row
    start, cuts = rng.state, []
    for _ in range(B):
        cuts.append(1 + rng.next_u64() % (L - 1))
        rng.skip((L - cuts[-1]) * row)
    end, rng.state = rng.state, start
    pm1 = rng._fill(1, B + row * (B * L - sum(cuts)), 1.0, None)[0]
    assert rng.state == end
    gates = pm1 * np.log(0.5)  # the fresh log-gates' floor is 1/2
    pm1 *= 2.0
    pm1 += -1.0
    o = 0
    for b, cut in enumerate(cuts):
        n, o = L - cut, o + 1  # past the cut's own draw
        for X, src in zip(into, (pm1, pm1, pm1, gates, gates)):
            w = X.shape[-1]
            X[b, cut:] = src[o:o + n * w].reshape(n, w)
            o += n * w
    return np.array(cuts)


def _prefix_errors(got: np.ndarray, ref: np.ndarray, cuts: np.ndarray,
                   keep: np.ndarray) -> tuple[float, float]:
    """max_abs and rel_err of each trial got[b] against ref over rows [0, cuts[b]),
    the worst of each over the trials.

    keep masks those rows.  A max is exact, so this is the max over trials
    of rel_err(got[b][:cut], ref[:cut]) bit for bit.
    """
    err = np.max(np.abs(got - ref), axis=(-2, -1), where=keep, initial=0.0)
    top = np.max(np.abs(got), axis=(-2, -1), where=keep, initial=0.0)
    ref_top = np.maximum.accumulate(np.max(np.abs(ref), axis=-1))[cuts - 1]
    rel = err / np.maximum(np.maximum(top, ref_top), 1e-8)
    return float(err.max()), float(rel.max())


def check_causality(inst: GlaInstance, trials: int = 20, seed: int = 7,
                    chunk: int | None = None, tol: float = 1e-12) -> CheckReport:
    """Future rows must not move past outputs.

    The recurrent form must be bit-exact on the untouched prefix; parallel
    and chunkwise must stay within tol.  Reports the worst deviation over
    all trials and forms (a nonzero recurrent deviation fails outright).

    Each trial draws its cut, then fresh rows from the cut on for Q, K, V,
    log_alpha and log_beta, in that order, in one SplitMix stream.  A
    group of B trials takes its part of the stream in one fill
    (``_draw_trials``), sliced straight into B stacked copies of the
    instance's arrays (fresh draws are finite and the log-gates <= 0,
    so nothing is validated).  The first group stacks the untouched
    instance as element 0, so its run is also the reference.  Each form's
    raw kernel runs once per group on the stack, and each batch element
    keeps the bits of its own public run.  Each form is then compared once
    per group: a mask keeps each trial's rows before its cut.  A trial
    whose chunkwise O has a non-finite entry anywhere, which the public
    form would reject with a ValueError, fails that form with an infinite
    error; a non-finite reference O fails its form for every trial.  A
    numpy op costs ~1 us of call overhead against ~1-3 ns per element, so
    B = max(1, min(trials, 2**15 // (L (dk + dv)))) gives each op up to
    2**15 elements: enough to hide the overhead, while each of a group's
    arrays stays within 256 KiB (or one trial's size, when that is
    larger), plus the reference's one instance in the first group.
    """
    if inst.L < 2:
        raise ValueError("causality check needs L >= 2")
    if trials < 1:
        raise ValueError(f"causality check needs trials >= 1, got {trials}")
    rng = SplitMix64(seed)
    plan = _plan(inst.L, chunk)
    group = max(1, min(trials, 2**15 // (inst.L * (inst.dk + inst.dv))))

    t0 = time.perf_counter()
    worst_abs = 0.0
    worst_rel = 0.0
    exact_ok = True
    rows = np.arange(inst.L)[:, None]
    for first in range(0, trials, group):
        r = 0 if first else 1  # the first group's element 0 is the reference
        stacked = [np.repeat(a[None], r + min(group, trials - first), axis=0)
                   for a in inst.arrays]
        cuts = _draw_trials(rng, [X[r:] for X in stacked])
        with np.errstate(all="ignore"):
            recs, _ = recurrent._forward_raw(*stacked)
            pars = parallel._forward_raw(*stacked)
            chks, _, _ = chunkwise._forward_raw(*stacked, plan, False)
            if r:  # a non-finite reference, which its public form rejects, fails its form
                ref_rec, ref_par, ref_chk = (o[0] if np.isfinite(o[0]).all() else None
                                             for o in (recs, pars, chks))
            recs, pars, chks = recs[r:], pars[r:], chks[r:]  # the trials
            keep = rows < cuts[:, None, None]
            if ref_rec is None or not np.where(keep, recs == ref_rec, True).all():
                exact_ok = False
            for got, ref in ((pars, ref_par), (chks if np.isfinite(chks).all() else None, ref_chk)):
                if got is None or ref is None:
                    worst_abs = worst_rel = np.inf
                    continue
                err, rel = _prefix_errors(got, ref, cuts, keep)
                worst_abs, worst_rel = max(worst_abs, err), max(worst_rel, rel)
    passed = exact_ok and worst_rel <= tol
    return CheckReport("causality", worst_abs, worst_rel if exact_ok else float("inf"),
                       tol, passed, time.perf_counter() - t0)
