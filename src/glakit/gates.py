"""Log-space gates, cumulative decays and chunk-relative decay factors.

Gates live in (0, 1] and are stored as log-gates (<= 0).  Decay products
underflow fp64 long before useful sequence lengths, so every decay factor
is exp() of a sum of logs.  The parallel form differences whole-sequence
prefix sums; the chunk factors sum only the chunk's own log-gates, so
their exponents stay within C * |ln gate_floor| and their rounding does
not grow with the position in the sequence.  The gate matrices applied to
a carried state, exp(la[i] + lb[j]), are ``outer_gate``, and ``carry`` is
the one loop that applies them: X_{j+1} = G_j (.) X_j + X_{j+1}, over
the recurrent form's steps and the chunkwise form's chunks, forward and,
on reversed views, back.  ``GateSeq`` validates the
gates where the public API takes them in; every decay function takes raw
log-gate arrays whose rows are axis -2 and whose leading axes are a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import readonly, record_array

__all__ = [
    "GateSeq",
    "ChunkPlan",
    "cumulative_log_decay",
    "chunk_factors",
    "chunk_relative_decays",
    "outer_gate",
    "carry",
]


@dataclass(frozen=True, slots=True, eq=False)
class GateSeq:
    """Per-position log-gates: log_alpha is L x dk, log_beta is L x dv.

    Each side is checked by ``record_array``, the array rules every record
    shares, and then by GateSeq's own two: no entry is above 0 (0.0 encodes
    a gate of exactly 1), and the sides agree on L.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray

    def __post_init__(self):
        for side in ("log_alpha", "log_beta"):
            a, hi = record_array(getattr(self, side), side)
            if hi > 0.0:
                raise ValueError(f"{side} must be <= 0 (gates in (0, 1]), got a max of {hi} "
                                 f"in shape {a.shape}")
            object.__setattr__(self, side, a)
        if self.log_alpha.shape[0] != self.log_beta.shape[0]:
            raise ValueError(f"log-gate shapes disagree on L: {self.log_alpha.shape} "
                             f"vs {self.log_beta.shape}")


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


def cumulative_log_decay(la: np.ndarray, lb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of the log-gates along the rows (axis -2), as a read-only (log_b, log_d).

    log_b[..., t, :] = sum_{j<=t} la[..., j, :], and log_d likewise from lb.
    The accumulation is sequential: log_b[t] = log_b[t-1] + la[t].  The
    preallocated out= traces less memory than letting accumulate allocate.
    """
    return tuple(readonly(np.add.accumulate(x, axis=-2, out=np.empty_like(x))) for x in (la, lb))


def _chunk_factors(lg: np.ndarray, out: np.ndarray | None):
    """dagger and log_gamma from one chunk's log-gate rows; dagger in out if given.

    Rows are axis -2; leading axes are a batch, each summed on its own.
    Every exponent is a sum over the chunk's own rows, so every factor is
    <= 1 exactly.  As in cumulative_log_decay, the preallocated out= traces
    less memory.
    """
    lc = np.add.accumulate(lg, axis=-2, out=np.empty_like(lg) if out is None else out)
    log_gamma = lc[..., -1, :].copy()  # not a view: dagger's exp overwrites lc in place
    return readonly(np.exp(lc, out=lc)), readonly(log_gamma)


def chunk_factors(la: np.ndarray, lb: np.ndarray, out=None) -> tuple[np.ndarray, ...]:
    """Decay factors of one chunk [s, e), from its own log-gate rows la and lb only.

    Returns four arrays, (b_dagger, d_dagger, log_gamma_b, log_gamma_d);
    the daggers and the decays they hold are in [0, 1].
    With lc the running sum of the chunk's own log_alpha rows:
    b_dagger[j] = exp(lc[j]) propagates the incoming state to position s+j,
    and log_gamma_b = lc[-1] is the log of the whole-chunk decay, kept so
    the carried gate can exponentiate sums rather than multiply
    exponentials.  The decay itself, gamma_b = exp(lc[-1:]), is
    b_dagger's last row, ``b_dagger[..., -1:, :]``: a 1 x dk view, taken
    where it is used, that scales rows by broadcasting.  Position s+j's
    contribution enters the outgoing state scaled by gamma_b / b_dagger[j];
    no array of those ratios is kept.  d_dagger and log_gamma_d mirror
    these with log_beta.  Leading axes are a batch: the daggers are
    (..., c, d) and the log gammas (..., d).  A group of chunks is one more
    batch axis: the chunkwise forward views a group's rows as
    (..., G, c, d), and each chunk's factors are its own.  Given ``out``, a
    pair of arrays shaped like la and lb, the two daggers are formed in
    them, and the returned ones are read-only views.
    """
    b_out, d_out = (None, None) if out is None else out
    b_dag, lgb = _chunk_factors(la, b_out)
    d_dag, lgd = _chunk_factors(lb, d_out)
    return b_dag, d_dag, lgb, lgd


def chunk_relative_decays(la: np.ndarray, lb: np.ndarray,
                          plan: ChunkPlan) -> list[tuple[np.ndarray, ...]]:
    """chunk_factors for every chunk of the plan."""
    plan.check(la.shape[-2])
    return [chunk_factors(la[..., s:e, :], lb[..., s:e, :]) for s, e in plan.boundaries]


def outer_gate(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """G[..., i, j] = exp(la[..., i] + lb[..., j]), batched over leading axes.

    The gate matrix is formed in log space, one add and one exp per element:
    exactly one rounding between log accumulator and factor.  Callers meter
    the 2 * G.size flops.
    """
    return np.exp(la[..., :, None] + lb[..., None, :])


def carry(G: np.ndarray, X: np.ndarray) -> None:
    """The gated carry, in place: X[..., j + 1, :, :] += G[..., j, :, :] (.) X[..., j, :, :].

    j ascends over G's slots (axis -3); X has one slot more, the matrix
    carried in first, then each step's own term.  Leading axes are a
    batch, G broadcast against X.  Every sequential state loop in the
    package is this one: the recurrent form's states over steps and the
    chunkwise form's over chunks, and, on reversed views (the gates and
    the slots taken last first), the cotangents carried back.  Callers
    meter its 2 * G.size flops.
    """
    for j in range(G.shape[-3]):
        X[..., j + 1, :, :] += G[..., j, :, :] * X[..., j, :, :]
