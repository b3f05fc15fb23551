"""Log-space gates, cumulative decays and chunk-relative decay factors.

Gates live in (0, 1] and are stored as log-gates (<= 0).  Decay products
underflow fp64 long before useful sequence lengths, so every decay factor
is exp() of a sum of logs.  The parallel form differences whole-sequence
prefix sums; the chunk factors sum only the chunk's own log-gates, so
their exponents stay within C * |ln gate_floor| and their rounding does
not grow with the position in the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor import _as_f64, _check_finite, readonly

__all__ = [
    "GateSeq",
    "CumulativeDecay",
    "ChunkPlan",
    "ChunkDecays",
    "cumulative_log_decay",
    "chunk_factors",
    "chunk_relative_decays",
    "outer_gate",
]


@dataclass(frozen=True, slots=True, eq=False)
class GateSeq:
    """Per-position log-gates: log_alpha is L x dk, log_beta is L x dv.

    Entries must be finite and <= 0; 0.0 encodes a gate of exactly 1.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray

    def __post_init__(self):
        la = _as_f64(self.log_alpha)
        lb = _as_f64(self.log_beta)
        if la.ndim != 2 or lb.ndim != 2:
            raise ValueError(f"log-gates must be 2-D, got shapes {la.shape} and {lb.shape}")
        if la.shape[0] != lb.shape[0]:
            raise ValueError(
                f"log-gate shapes disagree on L: {la.shape} vs {lb.shape}"
            )
        if la.shape[0] < 1 or la.shape[1] < 1 or lb.shape[1] < 1:
            raise ValueError("empty gate sequence")
        _check_finite(la)
        _check_finite(lb)
        if la.max() > 0.0 or lb.max() > 0.0:
            raise ValueError("log-gates must be <= 0 (gates in (0, 1])")
        object.__setattr__(self, "log_alpha", readonly(la))
        object.__setattr__(self, "log_beta", readonly(lb))

    @property
    def L(self) -> int:
        return self.log_alpha.shape[0]

    @property
    def dk(self) -> int:
        return self.log_alpha.shape[1]

    @property
    def dv(self) -> int:
        return self.log_beta.shape[1]


class CumulativeDecay(NamedTuple):
    """Prefix sums of log-gates: log_b[t] = sum_{j<=t} log_alpha[j], same for d."""

    log_b: np.ndarray
    log_d: np.ndarray


@dataclass(frozen=True, slots=True)
class ChunkPlan:
    """Contiguous [start, end) chunks covering [0, L); only the last may be short.

    L and C must be >= 1: otherwise the range of chunk starts would be
    empty (L < 1 or C < 0) or not a range at all (C = 0).  ``check`` is the
    one test, shared by every kernel and by predict_cost, that a plan fits
    the sequence it is used on.
    """

    L: int
    C: int
    boundaries: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if self.L < 1 or self.C < 1:
            raise ValueError("ChunkPlan needs L >= 1 and C >= 1")
        object.__setattr__(self, "boundaries", tuple(
            (s, min(s + self.C, self.L)) for s in range(0, self.L, self.C)))

    @property
    def num_chunks(self) -> int:
        return len(self.boundaries)

    def check(self, L: int) -> None:
        """Raise unless the plan fits a sequence of L rows."""
        if self.L != L:
            raise ValueError(f"plan covers L={self.L} but the sequence has L={L}")


class ChunkDecays(NamedTuple):
    """Decay factors for one chunk [s, e), all in [0, 1].

    With lc the running sum of the chunk's own log_alpha rows:
    b_dagger[j] = exp(lc[j]) propagates the incoming state to position s+j,
    and log_gamma_b = lc[-1] is the log of the whole-chunk decay, kept so
    the carried gate can exponentiate sums rather than multiply
    exponentials.  The decay itself, gamma_b = exp(lc[-1:]), is
    b_dagger's last row: a property, not a field, giving a 1 x dk view
    that scales rows by broadcasting.  Position s+j's
    contribution enters the outgoing state scaled by gamma_b / b_dagger[j];
    no array of those ratios is kept.  d_* mirror these with log_beta.
    """

    b_dagger: np.ndarray
    d_dagger: np.ndarray
    log_gamma_b: np.ndarray
    log_gamma_d: np.ndarray

    gamma_b = property(lambda self: self.b_dagger[-1:])
    gamma_d = property(lambda self: self.d_dagger[-1:])


def cumulative_log_decay(g: GateSeq) -> CumulativeDecay:
    """Running log-products of the gates (prefix sums in log space).

    Accumulation along axis 0 is sequential: log_b[t] = log_b[t-1] + log_alpha[t].
    The preallocated out= traces less memory than letting accumulate allocate.
    """
    log_b = np.add.accumulate(g.log_alpha, axis=0, out=np.empty_like(g.log_alpha))
    log_d = np.add.accumulate(g.log_beta, axis=0, out=np.empty_like(g.log_beta))
    return CumulativeDecay(readonly(log_b), readonly(log_d))


def _chunk_factors(lg: np.ndarray, out: np.ndarray | None):
    """dagger and log_gamma from one chunk's log-gate rows; dagger in out if given.

    Every exponent is a sum over the chunk's own rows, so every factor is
    <= 1 exactly.  As in cumulative_log_decay, the preallocated out= traces
    less memory.
    """
    lc = np.add.accumulate(lg, axis=0, out=np.empty_like(lg) if out is None else out)
    log_gamma = lc[-1].copy()  # not a view: dagger's exp overwrites lc in place
    return readonly(np.exp(lc, out=lc)), readonly(log_gamma)


def chunk_factors(g: GateSeq, s: int, e: int, out=None) -> ChunkDecays:
    """Decay factors of the chunk [s, e), from its own log-gate rows only.

    Given ``out``, a pair of (e - s) x dk and (e - s) x dv arrays, the two
    daggers are formed in them, and the returned ones are read-only views.
    """
    b_out, d_out = (None, None) if out is None else out
    b_dag, lgb = _chunk_factors(g.log_alpha[s:e], b_out)
    d_dag, lgd = _chunk_factors(g.log_beta[s:e], d_out)
    return ChunkDecays(b_dag, d_dag, lgb, lgd)


def chunk_relative_decays(g: GateSeq, plan: ChunkPlan) -> list[ChunkDecays]:
    """chunk_factors for every chunk of the plan."""
    plan.check(g.L)
    return [chunk_factors(g, s, e) for s, e in plan.boundaries]


def outer_gate(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """G[..., i, j] = exp(la[..., i] + lb[..., j]), batched over leading axes.

    The gate matrix is formed in log space, one add and one exp per element:
    exactly one rounding between log accumulator and factor.  Callers meter
    the 2 * G.size flops.
    """
    return np.exp(la[..., :, None] + lb[..., None, :])
