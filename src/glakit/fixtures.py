"""Named model configurations and reproducible instance generation.

Instances are a pure function of (kind, L, dk, dv, seed, gate_floor): the
generator is a splitmix64 stream, documented here so any implementation in
any language can reproduce the exact same bytes.  Draw order: Q row-major,
then K, then V (all uniform in [-1, 1]), then log_alpha, then log_beta
(uniform in [ln gate_floor, 0] where sampled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import GateSeq
from .recurrent import GlaInstance
from .tensor import SeqTensor

__all__ = ["ModelKind", "SplitMix64", "make_instance"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 (Steele, Lea & Flood, OOPSLA 2014): 64-bit state, 64-bit outputs.

    Counter-based: draw n = 1, 2, ... is mix(seed + n * gamma mod 2^64), so a
    block of draws is one wrapping uint64 array computation.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def _draws(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array; state advances n steps."""
        z = np.uint64(self.state) + np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def next_u64(self) -> int:
        return int(self._draws(1)[0])

    def _uniform(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols uniforms in [0, 1), row-major: a draw's top 53 bits times 2^-53."""
        return (self._draws(rows * cols) >> np.uint64(11)).reshape(rows, cols) * 2.0 ** -53

    def fill_pm1(self, rows: int, cols: int) -> np.ndarray:
        return 2.0 * self._uniform(rows, cols) - 1.0

    def fill_log_gate(self, rows: int, cols: int, log_floor: float) -> np.ndarray:
        return self._uniform(rows, cols) * log_floor


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
    if L < 1 or dk < 1 or dv < 1:
        raise ValueError("L, dk, dv must all be >= 1")
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
