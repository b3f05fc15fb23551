"""Flop accounting, and the report a chunkwise pass returns.

Counting convention (fixed so every predicted number is bit-reproducible):
multiply = 1, add/subtract = 1, divide = 1, exp = 1.  Assignments, copies,
negations and comparisons are free.  A matmul of m x k by k x n costs
m*n*k multiplies and m*n*(k-1) adds (the first k-slice initialises the
accumulator), whatever order the product sums in; entries of a product
that are later zeroed by assignment are still counted.  The meter counts
flops only.  A CostReport adds a chunk policy's state traffic, which
``chunkwise.ChunkPolicy.report`` states and describes for both passes
and for ``predict_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostReport", "Meter", "mm_flops"]


@dataclass(frozen=True)
class CostReport:
    flops: int = 0
    state_writes: int = 0
    state_reads: int = 0
    recompute_passes: int = 0


class Meter:
    """Mutable flop counter: each executed array op adds its int flops to ``flops`` at its call site.

    The add is a plain attribute increment, not a method call: the
    chunkwise backward makes ~40 of them per call, and at small shapes a
    method call's overhead is a few percent of the pass.
    """

    __slots__ = ("flops",)

    def __init__(self):
        self.flops = 0


def mm_flops(m: int, k: int, n: int) -> int:
    """Cost of an m x k by k x n product: m*n mults per k-slice, adds for all but the first."""
    return m * n * k + m * n * (k - 1)
