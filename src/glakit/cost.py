"""Flop and state-traffic accounting.

Counting convention (fixed so every predicted number is bit-reproducible):
multiply = 1, add/subtract = 1, divide = 1, exp = 1.  Assignments, copies,
negations and comparisons are free.  A matmul of m x k by k x n costs
m*n*k multiplies and m*n*(k-1) adds (the first k-slice initialises the
accumulator), whatever order the product sums in; entries of a product
that are later zeroed by assignment are still counted.  state_writes /
state_reads count whole dk x dv state matrices moved to / from the
modeled slow memory; the live running state is not traffic.
recompute_passes counts chunk state-update evaluations replayed during a
backward pass.  The chunkwise backward runs the state recurrence once
under either policy: its materialize counters model the chunk-parallel
backward of the GLA paper (section 4), which reads each S_{i-1} back from
the forward's record, and its recompute counters count the replays it runs.
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
    """Mutable counter accumulated at the call sites of executed array ops."""

    __slots__ = ("flops", "state_writes", "state_reads", "recompute_passes")

    def __init__(self):
        self.flops = 0
        self.state_writes = 0
        self.state_reads = 0
        self.recompute_passes = 0

    def add_flops(self, n: int) -> None:
        self.flops += int(n)

    def report(self) -> CostReport:
        return CostReport(self.flops, self.state_writes, self.state_reads,
                          self.recompute_passes)


def mm_flops(m: int, k: int, n: int) -> int:
    """Cost of an m x k by k x n product: m*n mults per k-slice, adds for all but the first."""
    return m * n * k + m * n * (k - 1)
