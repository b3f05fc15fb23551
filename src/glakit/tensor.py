"""Dense fp64 array primitives with pinned summation order.

Everything downstream (gates, the three attention forms, the gradient
oracles) is built on the operations here.  ``mm`` adds its products one
inner index at a time, ascending, batched over leading axes, and matches a
naive triple loop bit for bit; it is the product of the recurrent form,
whose results must not depend on how a BLAS library orders its sums.

The chunkwise form does its products with BLAS instead (``chunkwise.mm``),
for speed.  Its bitwise promises are narrower and do not need a pinned
order: the two scheduling policies agree bit for bit, and so does a repeat
of the same call.  It is checked against the recurrent form by tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SeqTensor", "mm", "readonly", "suffix_sum_arr"]


def readonly(a: np.ndarray) -> np.ndarray:
    """Clear a's write flag and return it; records carry only read-only arrays."""
    a.setflags(write=False)
    return a


def check_sizes(**sizes: int) -> None:
    """The size rule of instances and cost models: a ValueError names the first size below 1."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")


def record_array(data, name: str) -> tuple[np.ndarray, float]:
    """data as a record's array, and its max: the one statement of the array rules.

    The array is C-contiguous fp64 and owns its data: an input that does
    not is copied, so a caller's writable base cannot change the record it
    goes into.  It must be 2-D and non-empty, and finite: NaN carries
    through min and max and an infinity is one of them, so one min and one
    max check it with no record-sized temporary.  It is then read-only.
    The max is returned so that a caller's own bound (the log-gates' sign)
    reads the array no third time.  ``name`` names the array in errors.
    """
    a = np.asarray(data, dtype=np.float64)
    a = np.ascontiguousarray(a) if a.flags.owndata else a.copy()
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} needs a non-empty 2-D array, got shape {a.shape}")
    lo, hi = a.min(), a.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"non-finite value (NaN/Inf) in {name} of shape {a.shape}")
    return readonly(a), hi


@dataclass(frozen=True, slots=True, eq=False)
class SeqTensor:
    """A rows x cols fp64 matrix, row-major, finite, immutable.

    Carries sequences: Q, K are L x dk, V, O are L x dv, gradients mirror
    their primal shapes.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", record_array(self.data, "SeqTensor")[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw ndarray product with ascending-k accumulation, batched over leading axes.

    out[..., i, j] = sum_k a[..., i, k] * b[..., k, j] as r_0 = a_0 b_0,
    r_k = r_{k-1} + a_k b_k: a naive triple loop, bitwise (no FMA, no
    reassociation).  One numpy call per k adds the rounded products
    a_k b_k of every entry, so scratch is one m*n product per batch; the
    result takes a's and b's result dtype.  Library callers are matvecs,
    batched over a block of steps or of perturbed copies.
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    r = a[..., :, 0, None] * b[..., 0, None, :]
    for k in range(1, a.shape[-1]):
        r += a[..., :, k, None] * b[..., k, None, :]
    return r


def suffix_sum_arr(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[t] = sum_{i >= t} x[i], accumulated back to front: out[t] = x[t] + out[t+1].

    ``out`` may be ``x`` itself: row t is read before it is written, so the
    in-place sum has the same bits as a fresh one.  The sum runs along
    axis 0 of an array of any rank; an array of no rows gives no rows.
    """
    if out is None:
        out = np.empty(x.shape)
    np.add.accumulate(x[::-1], axis=0, out=out[::-1])
    return out
