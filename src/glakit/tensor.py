"""Dense fp64 array primitives with pinned summation order.

Everything downstream (gates, the three attention forms, the gradient
oracles) is built on the operations here.  ``mm`` is one sequential
accumulate over the inner index, batched over leading axes, and matches a
naive triple loop bit for bit; it is the product of the recurrent form,
whose results must not depend on how a BLAS library orders its sums.

The chunkwise form does its products with BLAS instead (``chunkwise.mm``),
for speed.  Its bitwise promises are narrower and do not need a pinned
order: the two scheduling policies agree bit for bit, and so does a repeat
of the same call.  It is checked against the recurrent form by tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeqTensor", "mm", "readonly", "suffix_sum_arr"]


def _as_f64(data) -> np.ndarray:
    a = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite value (NaN/Inf) in tensor data")
    return a


def readonly(a: np.ndarray) -> np.ndarray:
    """Clear a's write flag and return it; records carry only read-only arrays."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, slots=True, eq=False)
class SeqTensor:
    """A rows x cols fp64 matrix, row-major, finite, immutable.

    Carries sequences: Q, K are L x dk, V, O are L x dv, gradients mirror
    their primal shapes.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _as_f64(self.data)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"SeqTensor needs a non-empty 2-D array, got shape {a.shape}")
        object.__setattr__(self, "data", readonly(np.ascontiguousarray(a)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw ndarray product with ascending-k accumulation, batched over leading axes.

    out[..., i, j] = sum_k a[..., i, k] * b[..., k, j] as r_0 = a_0 b_0,
    r_k = r_{k-1} + a_k b_k: a naive triple loop, bitwise (no FMA, no
    reassociation).  Scratch is m*k*n per batch; library callers are matvecs.
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return np.add.accumulate(a[..., :, :, None] * b[..., None, :, :], axis=-2)[..., -1, :]


def suffix_sum_arr(x: np.ndarray) -> np.ndarray:
    """out[t] = sum_{i >= t} x[i], accumulated back to front: out[t] = x[t] + out[t+1]."""
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("suffix_sum needs a non-empty 2-D array")
    out = np.empty(x.shape)
    np.add.accumulate(x[::-1], axis=0, out=out[::-1])
    return out
