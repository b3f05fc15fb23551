"""Ground-truth recurrent form and the finite-difference gradient oracle.

The step-by-step recurrence

    S_t = (alpha_t^T beta_t) (.) S_{t-1} + k_t^T v_t,      o_t = q_t S_t

is the reference every other form is validated against.  The per-step gate
matrix is formed directly in log space, exp(log_alpha[i] + log_beta[j]),
one exp per element: the same rule used for every decay factor in the
library (exactly one rounding between log accumulator and factor).

Gradients come in two independent flavours: an exact reverse-mode sweep
through the stored states, and central finite differences on the scalar
loss <O, dO>.  The finite-difference oracle is the arbiter for every
analytic backward pass in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .cost import Meter
from .gates import GateSeq
from .tensor import SeqTensor, mm, readonly

__all__ = [
    "GlaInstance",
    "ForwardTrace",
    "GradBundle",
    "forward_recurrent",
    "backward_recurrent_exact",
    "backward_recurrent_fd",
    "recurrent_forward_cost",
]


@dataclass(frozen=True, slots=True)
class GlaInstance:
    """One problem instance: Q, K (L x dk), V (L x dv) plus log-gates."""

    Q: SeqTensor
    K: SeqTensor
    V: SeqTensor
    gates: GateSeq

    def __post_init__(self):
        Q, K, V, gates = self.Q, self.K, self.V, self.gates
        if not (Q.shape[0] == K.shape[0] == V.shape[0] == gates.L):
            raise ValueError("row counts disagree across Q, K, V, gates")
        if Q.shape[1] != gates.dk or K.shape[1] != gates.dk:
            raise ValueError("key dims disagree with gates")
        if V.shape[1] != gates.dv:
            raise ValueError("value dim disagrees with gates")

    @property
    def L(self) -> int:
        return self.gates.L

    @property
    def dk(self) -> int:
        return self.gates.dk

    @property
    def dv(self) -> int:
        return self.gates.dv


class ForwardTrace(NamedTuple):
    """Forward output O plus, optionally, every state S_1..S_L (read-only)."""

    O: SeqTensor
    states: list[np.ndarray] | None


@dataclass(frozen=True, slots=True)
class GradBundle:
    """All backward outputs: dQ, dK (L x dk), dV (L x dv), dlog_alpha, dlog_beta.

    Each field is given as an array and stored as a SeqTensor.
    """

    dQ: SeqTensor
    dK: SeqTensor
    dV: SeqTensor
    dlog_alpha: SeqTensor
    dlog_beta: SeqTensor

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, SeqTensor(getattr(self, f.name)))


def _step_gate(la_t: np.ndarray, lb_t: np.ndarray, meter: Meter | None) -> np.ndarray:
    """G_t[i, j] = exp(log_alpha_t[i] + log_beta_t[j])."""
    G = np.exp(la_t[:, None] + lb_t[None, :])
    if meter:
        meter.add_flops(2 * la_t.size * lb_t.size)  # one add + one exp per element
    return G


def _forward_raw(Q, K, V, la, lb, keep_states: bool = False, meter: Meter | None = None):
    """The recurrence on raw ndarrays; shared by the public forward and the FD oracle."""
    L, dk = Q.shape
    dv = V.shape[1]
    S = np.zeros((dk, dv))
    O = np.empty((L, dv))
    states = [] if keep_states else None
    for t in range(L):
        G = _step_gate(la[t], lb[t], meter)
        S = G * S + np.multiply.outer(K[t], V[t])
        O[t] = mm(Q[t][None, :], S)[0]
        if meter:
            # gate the state, rank-1 update, sum; then the q S_t matvec
            meter.add_flops(3 * dk * dv + dk * dv + (dk - 1) * dv)
        if keep_states:
            states.append(readonly(S))  # never written again: the next step rebinds S
    return O, states


def forward_recurrent(inst: GlaInstance, keep_states: bool = False,
                      meter: Meter | None = None) -> ForwardTrace:
    """Run the recurrence from S_0 = 0; optionally record every S_t."""
    O, states = _forward_raw(inst.Q.data, inst.K.data, inst.V.data,
                             inst.gates.log_alpha, inst.gates.log_beta,
                             keep_states=keep_states, meter=meter)
    return ForwardTrace(SeqTensor(O), states)


def recurrent_forward_cost(L: int, dk: int, dv: int) -> int:
    """Closed-form flop count of forward_recurrent (validated against a metered run)."""
    per_step = 2 * dk * dv + 3 * dk * dv + dk * dv + (dk - 1) * dv
    return L * per_step


def backward_recurrent_exact(inst: GlaInstance, dO: SeqTensor) -> GradBundle:
    """Reverse-mode sweep through the recurrence with all states materialized.

    Loss convention: scalar loss <O, dO> with the caller's dO.  Gate
    gradients are taken directly in log-gate coordinates:
    dlog_alpha_t[i] = sum_j G_t[i,j] * S_{t-1}[i,j] * dS_t[i,j].
    """
    if dO.shape != (inst.L, inst.dv):
        raise ValueError(f"dO must be {inst.L}x{inst.dv}, got {dO.shape}")
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    la, lb = inst.gates.log_alpha, inst.gates.log_beta
    dOa = dO.data
    L, dk, dv = inst.L, inst.dk, inst.dv

    trace = forward_recurrent(inst, keep_states=True)
    states = trace.states

    dQ = np.zeros((L, dk))
    dK = np.zeros((L, dk))
    dV = np.zeros((L, dv))
    dla = np.zeros((L, dk))
    dlb = np.zeros((L, dv))

    dS = np.zeros((dk, dv))
    for t in range(L - 1, -1, -1):
        dS = dS + np.multiply.outer(Q[t], dOa[t])  # o_t = q_t S_t path
        dQ[t] = mm(states[t], dOa[t][:, None])[:, 0]
        dK[t] = mm(dS, V[t][:, None])[:, 0]
        dV[t] = mm(K[t][None, :], dS)[0]
        G = _step_gate(la[t], lb[t], None)
        S_prev = states[t - 1] if t > 0 else np.zeros((dk, dv))
        gate_path = G * S_prev * dS
        dla[t] = gate_path.sum(axis=1)
        dlb[t] = gate_path.sum(axis=0)
        dS = G * dS
    return GradBundle(dQ, dK, dV, dla, dlb)


def _loss_raw(Q, K, V, la, lb, dOa) -> float:
    O, _ = _forward_raw(Q, K, V, la, lb)
    return float(np.sum(O * dOa))


def backward_recurrent_fd(inst: GlaInstance, dO: SeqTensor, eps: float = 1e-5) -> GradBundle:
    """Central finite differences on <O, dO>, one scalar input at a time.

    Log-gate entries are perturbed as-is, so the result is directly
    dlog_alpha / dlog_beta with no chain-rule conversion.  The perturbed
    evaluations bypass domain re-validation (a +eps step at log-gate 0
    briefly leaves (0, 1]; the recurrence itself is smooth there).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if dO.shape != (inst.L, inst.dv):
        raise ValueError(f"dO must be {inst.L}x{inst.dv}, got {dO.shape}")
    dOa = dO.data
    arrs = [a.copy() for a in (inst.Q.data, inst.K.data, inst.V.data,
                               inst.gates.log_alpha, inst.gates.log_beta)]
    grads = []
    for a in arrs:
        g = np.empty_like(a)
        for i, j in np.ndindex(a.shape):
            orig = a[i, j]
            a[i, j] = orig + eps
            lp = _loss_raw(*arrs, dOa)
            a[i, j] = orig - eps
            lm = _loss_raw(*arrs, dOa)
            a[i, j] = orig
            g[i, j] = (lp - lm) / (2.0 * eps)
        grads.append(g)
    return GradBundle(*grads)
