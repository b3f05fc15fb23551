"""Named model configurations and reproducible instance generation.

Instances are a pure function of (kind, L, dk, dv, seed, gate_floor): the
generator is a splitmix64 stream, documented here so any implementation in
any language can reproduce the exact same bytes.  Draw order: Q row-major,
then K, then V (all uniform in [-1, 1]), then log_alpha, then log_beta
(uniform in [ln gate_floor, 0] where sampled).

That spec is the whole contract.  Internally a tensor is filled in place,
a fixed block of draws at a time; the block size changes no byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import GateSeq
from .recurrent import GlaInstance
from .tensor import SeqTensor, check_sizes, readonly

__all__ = ["ModelKind", "SplitMix64", "make_instance"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 16384  # draws mixed per block: 128 KiB of scratch, cache-resident
_STEPS = readonly(np.uint64(_GAMMA) * np.arange(1, _BLOCK + 1, dtype=np.uint64))  # gamma*[1..BLOCK]


class SplitMix64:
    """splitmix64 (Steele, Lea & Flood, OOPSLA 2014): 64-bit state, 64-bit outputs.

    Counter-based: draw n = 1, 2, ... is mix(seed + n * gamma mod 2^64), so a
    block of draws is one wrapping uint64 array computation.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = z = (self.state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def _fill(self, rows: int, cols: int, scale: float, shift: float | None) -> np.ndarray:
        """rows x cols of u * scale (+ shift), row-major, where u in [0, 1) is
        a draw's top 53 bits times 2^-53; state advances rows * cols steps.

        Each block of draws is mixed in a uint64 scratch, with the output
        block's own bytes as the second operand, then scaled into place.
        """
        out = np.empty((rows, cols))
        flat = out.reshape(-1)
        n = flat.size
        z = np.empty(min(n, _BLOCK), dtype=np.uint64)
        for s in range(0, n, _BLOCK):
            m = min(_BLOCK, n - s)
            zb, o = z[:m], flat[s:s + m]
            t = o.view(np.uint64)
            np.add(_STEPS[:m], np.uint64((self.state + s * _GAMMA) & _MASK), out=zb)
            np.right_shift(zb, 30, out=t)
            zb ^= t
            zb *= _MIX1
            np.right_shift(zb, 27, out=t)
            zb ^= t
            zb *= _MIX2
            np.right_shift(zb, 31, out=t)
            zb ^= t
            zb >>= 11
            np.multiply(zb, 2.0 ** -53, out=o)
            o *= scale
            if shift is not None:
                o += shift
        self.skip(n)
        return out

    def skip(self, n: int) -> None:
        """Advance the state past n draws without making them."""
        self.state = (self.state + n * _GAMMA) & _MASK

    def fill_pm1(self, rows: int, cols: int) -> np.ndarray:
        return self._fill(rows, cols, 2.0, -1.0)

    def fill_log_gate(self, rows: int, cols: int, log_floor: float) -> np.ndarray:
        return self._fill(rows, cols, log_floor, None)


_KINDS = ("vanilla", "retnet", "gla_beta_one", "general")


@dataclass(frozen=True)
class ModelKind:
    """vanilla (no gating), retnet (constant scalar key decay gamma),
    gla_beta_one (data-dependent key gates, unit value gates), general."""

    kind: str
    gamma: float = 0.9

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "retnet" and not (0.0 < self.gamma < 1.0):
            raise ValueError(f"retnet gamma must be in (0, 1), got {self.gamma}")


def make_instance(kind: ModelKind, L: int, dk: int, dv: int, seed: int,
                  gate_floor: float = 0.5) -> GlaInstance:
    """Deterministic random instance of the requested model family."""
    check_sizes(L=L, dk=dk, dv=dv)
    if not (0.0 < gate_floor <= 1.0):
        raise ValueError(f"gate_floor must be in (0, 1], got {gate_floor}")
    rng = SplitMix64(seed)
    Q = rng.fill_pm1(L, dk)
    K = rng.fill_pm1(L, dk)
    V = rng.fill_pm1(L, dv)
    log_floor = math.log(gate_floor)
    if kind.kind == "vanilla":
        la = np.zeros((L, dk))
        lb = np.zeros((L, dv))
    elif kind.kind == "retnet":
        la = np.full((L, dk), math.log(kind.gamma))
        lb = np.zeros((L, dv))
    elif kind.kind == "gla_beta_one":
        la = rng.fill_log_gate(L, dk, log_floor)
        lb = np.zeros((L, dv))
    else:  # general
        la = rng.fill_log_gate(L, dk, log_floor)
        lb = rng.fill_log_gate(L, dv, log_floor)
    return GlaInstance(SeqTensor(Q), SeqTensor(K), SeqTensor(V), GateSeq(la, lb))
