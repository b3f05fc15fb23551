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
    """Contiguous [start, end) chunks covering [0, L); only the last may be short."""

    L: int
    C: int
    boundaries: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if self.L < 1 or self.C < 1:
            raise ValueError("ChunkPlan needs L >= 1 and C >= 1")
        bounds = []
        s = 0
        while s < self.L:
            e = min(s + self.C, self.L)
            bounds.append((s, e))
            s = e
        object.__setattr__(self, "boundaries", tuple(bounds))

    @property
    def num_chunks(self) -> int:
        return len(self.boundaries)


class ChunkDecays(NamedTuple):
    """Decay factors for one chunk [s, e), all in [0, 1].

    With lc the running sum of the chunk's own log_alpha rows:
    b_dagger[j] = exp(lc[j]) propagates the incoming state to position s+j;
    b_prime[j] = exp(lc[-1] - lc[j]) carries position s+j's contribution
    into the outgoing state; log_gamma_b = lc[-1] is the log of the
    whole-chunk decay, kept in log space so consumers can exponentiate
    sums rather than multiply exponentials.  d_* mirror these with log_beta.
    """

    b_prime: np.ndarray
    b_dagger: np.ndarray
    d_prime: np.ndarray
    d_dagger: np.ndarray
    log_gamma_b: np.ndarray
    log_gamma_d: np.ndarray


def cumulative_log_decay(g: GateSeq) -> CumulativeDecay:
    """Running log-products of the gates (prefix sums in log space).

    Accumulation along axis 0 is sequential: log_b[t] = log_b[t-1] + log_alpha[t].
    The preallocated out= traces less memory than letting accumulate allocate.
    """
    log_b = np.add.accumulate(g.log_alpha, axis=0, out=np.empty_like(g.log_alpha))
    log_d = np.add.accumulate(g.log_beta, axis=0, out=np.empty_like(g.log_beta))
    return CumulativeDecay(readonly(log_b), readonly(log_d))


def _chunk_factors(lg: np.ndarray):
    """dagger, prime, log_gamma from one chunk's log-gate rows.

    Every exponent is a sum over the chunk's own rows; prime's differences
    are <= 0 exactly, since adding a log-gate never rounds a sum upwards.
    As in cumulative_log_decay, the preallocated out= traces less memory.
    """
    lc = np.add.accumulate(lg, axis=0, out=np.empty_like(lg))
    log_gamma = lc[-1].copy()  # not a view: dagger's exp overwrites lc in place
    prime = np.exp(log_gamma - lc)
    dagger = np.exp(lc, out=lc)
    return readonly(dagger), readonly(prime), readonly(log_gamma)


def chunk_factors(g: GateSeq, s: int, e: int) -> ChunkDecays:
    """Decay factors of the chunk [s, e), from its own log-gate rows only."""
    b_dag, b_pri, lgb = _chunk_factors(g.log_alpha[s:e])
    d_dag, d_pri, lgd = _chunk_factors(g.log_beta[s:e])
    return ChunkDecays(b_pri, b_dag, d_pri, d_dag, lgb, lgd)


def chunk_relative_decays(g: GateSeq, plan: ChunkPlan) -> list[ChunkDecays]:
    """chunk_factors for every chunk of the plan."""
    if plan.L != g.L:
        raise ValueError(f"plan covers L={plan.L} but gates have L={g.L}")
    return [chunk_factors(g, s, e) for s, e in plan.boundaries]


def outer_gate(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """G[..., i, j] = exp(la[..., i] + lb[..., j]), batched over leading axes.

    The gate matrix is formed in log space, one add and one exp per element:
    exactly one rounding between log accumulator and factor.  Callers meter
    the 2 * G.size flops.
    """
    return np.exp(la[..., :, None] + lb[..., None, :])
