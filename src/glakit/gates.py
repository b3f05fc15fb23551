"""Log-space gates, cumulative decays and chunk-relative decay factors.

Gates live in (0, 1] and are stored as log-gates (<= 0).  Cumulative decay
products underflow fp64 long before useful sequence lengths, so cumulative
quantities are kept as prefix sums of logs and every concrete decay factor
is formed as exp() of a difference of those sums.  Within a chunk the
differences are bounded by the chunk's own decay range, at most
C * |ln gate_floor|: independent of the sequence length, but not of C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor import _as_f64, readonly

__all__ = [
    "GateSeq",
    "CumulativeDecay",
    "ChunkPlan",
    "ChunkDecays",
    "cumulative_log_decay",
    "chunk_relative_decays",
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
        if la.ndim != 2 or lb.ndim != 2 or la.shape[0] != lb.shape[0]:
            raise ValueError(
                f"log-gate shapes disagree on L: {la.shape} vs {lb.shape}"
            )
        if la.shape[0] < 1 or la.shape[1] < 1 or lb.shape[1] < 1:
            raise ValueError("empty gate sequence")
        if np.any(la > 0.0) or np.any(lb > 0.0):
            raise ValueError("log-gates must be <= 0 (gates in (0, 1])")
        object.__setattr__(self, "log_alpha", readonly(np.ascontiguousarray(la)))
        object.__setattr__(self, "log_beta", readonly(np.ascontiguousarray(lb)))

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

    @property
    def L(self) -> int:
        return self.log_b.shape[0]


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
    """Decay factors for one chunk [s, e), all in (0, 1].

    b_dagger[j]: decay accumulated from just before the chunk up to s+j
                 (propagates the incoming state to position s+j).
    b_prime[j]:  decay from position s+j to the chunk's last position e-1
                 (carries position s+j's contribution into the outgoing state).
    log_gamma_b: log of the whole-chunk decay, b_prime[j] * b_dagger[j] for
                 every j; kept in log space so consumers can exponentiate
                 sums rather than multiply exponentials.
    d_* mirror these on the value side.
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


def _chunk_factors(log_c: np.ndarray, s: int, e: int):
    """dagger, prime, log_gamma for one chunk of one log-decay matrix.

    The boundary value just before the chunk is log_c[s-1] (0 for the first
    chunk: empty product).  All exponents are within-chunk differences.
    """
    bnd = log_c[s - 1] if s > 0 else np.zeros(log_c.shape[1])
    dagger = np.exp(log_c[s:e] - bnd)
    prime = np.exp(log_c[e - 1] - log_c[s:e])
    log_gamma = log_c[e - 1] - bnd
    return readonly(dagger), readonly(prime), readonly(log_gamma)


def chunk_relative_decays(cd: CumulativeDecay, plan: ChunkPlan) -> list[ChunkDecays]:
    """Per-chunk decay factors for every chunk of the plan."""
    if plan.L != cd.L:
        raise ValueError(f"plan covers L={plan.L} but decays have L={cd.L}")
    out = []
    for s, e in plan.boundaries:
        b_dag, b_pri, lgb = _chunk_factors(cd.log_b, s, e)
        d_dag, d_pri, lgd = _chunk_factors(cd.log_d, s, e)
        out.append(ChunkDecays(b_pri, b_dag, d_pri, d_dag, lgb, lgd))
    return out
