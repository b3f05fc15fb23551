"""Ground-truth recurrent form and the finite-difference gradient oracle.

The step-by-step recurrence

    S_t = (alpha_t^T beta_t) (.) S_{t-1} + k_t^T v_t,      o_t = q_t S_t

is the reference every other form is validated against.  The per-step gate
matrix is formed directly in log space, exp(log_alpha[i] + log_beta[j]),
one exp per element (``gates.outer_gate``): the same rule used for every
decay factor in the library (exactly one rounding between log
accumulator and factor).

Gradients come in two independent flavours: an exact reverse-mode sweep
through the stored states, and central finite differences on the scalar
loss <O, dO>.  The finite-difference oracle is the arbiter for every
analytic backward pass in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .gates import GateSeq, outer_gate
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
        if not (Q.shape == K.shape == (gates.L, gates.dk) and V.shape == (gates.L, gates.dv)):
            raise ValueError(f"shapes disagree: Q {Q.shape}, K {K.shape}, V {V.shape}, log_alpha "
                             f"{gates.log_alpha.shape}, log_beta {gates.log_beta.shape}")

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


def _forward_raw(Q, K, V, la, lb, keep_states: bool = False, head=None):
    """The recurrence on raw ndarrays, leading axes a batch; shared with the FD oracle.

    head = (O_head, S) resumes a run whose first start = len(O_head) rows are
    known: they are copied into O (broadcast over the batch) and the loop
    runs steps start..L-1 from S = S_{start-1}.  S is only read, and the
    steps give the bits a run from S_0 = 0 would.
    """
    L, dk = Q.shape[-2:]
    dv = V.shape[-1]
    batch = np.broadcast_shapes(*(a.shape[:-2] for a in (Q, K, V, la, lb)))
    O = np.empty((*batch, L, dv))
    if head is None:
        start, S = 0, np.zeros((*batch, dk, dv))
    else:
        O_head, S = head
        start = len(O_head)
        O[..., :start, :] = O_head
    states = [] if keep_states else None
    for t in range(start, L):
        G = outer_gate(la[..., t, :], lb[..., t, :])
        S = G * S + K[..., t, :, None] * V[..., t, None, :]
        O[..., t, :] = mm(Q[..., t, None, :], S)[..., 0, :]
        if keep_states:
            states.append(readonly(S))  # never written again: the next step rebinds S
    return O, states


@np.errstate(all="ignore")
def forward_recurrent(inst: GlaInstance, keep_states: bool = False) -> ForwardTrace:
    """Run the recurrence from S_0 = 0; optionally record every S_t."""
    O, states = _forward_raw(inst.Q.data, inst.K.data, inst.V.data,
                             inst.gates.log_alpha, inst.gates.log_beta,
                             keep_states=keep_states)
    return ForwardTrace(SeqTensor(O), states)


def recurrent_forward_cost(L: int, dk: int, dv: int) -> int:
    """Closed-form flop count of forward_recurrent: L steps at one fixed cost.

    A step forms the gate, an add and an exp per entry (2 dk dv), gates the
    state and adds the rank-1 update k_t^T v_t (3 dk dv), then forms
    o_t = q_t S_t (dk dv + (dk-1) dv).  No run counts these ops; the
    test suite pins this count to a total derived by hand from the ops.
    """
    per_step = 2 * dk * dv + 3 * dk * dv + dk * dv + (dk - 1) * dv
    return L * per_step


@np.errstate(all="ignore")
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
        G = outer_gate(la[t], lb[t])
        S_prev = states[t - 1] if t > 0 else np.zeros((dk, dv))
        gate_path = G * S_prev * dS
        dla[t] = gate_path.sum(axis=1)
        dlb[t] = gate_path.sum(axis=0)
        dS = G * dS
    return GradBundle(dQ, dK, dV, dla, dlb)


def _loss_raw(Q, K, V, la, lb, dOa, head=None) -> np.ndarray:
    """<O, dO> per batch element, each summed as one flat row like np.sum(O * dO)."""
    O, _ = _forward_raw(Q, K, V, la, lb, head=head)
    return np.sum((O * dOa).reshape(*O.shape[:-2], -1), axis=-1)


@np.errstate(all="ignore")
def backward_recurrent_fd(inst: GlaInstance, dO: SeqTensor, eps: float = 1e-5) -> GradBundle:
    """Central finite differences on <O, dO>, one scalar input at a time.

    An input row's 2*cols perturbed copies (+eps at column j in copy j, -eps
    in copy cols + j) run as one batched recurrence; scratch is O(cols*L*d).
    A perturbation at row i moves neither S_0..S_{i-1} nor the O rows before
    i, so row i's batch starts from the unperturbed S_{i-1} (recorded once)
    with those O rows copied in, and runs only the L - i steps from i on:
    L(L+1)/2 batched steps per input instead of L^2.  The loss still sums
    the full flat O row, so it has the bits of a run from S_0 = 0.
    Log-gate entries are perturbed as-is, so the result is directly
    dlog_alpha / dlog_beta with no chain-rule conversion.  The perturbed
    evaluations bypass domain re-validation (a +eps step at log-gate 0
    briefly leaves (0, 1]; the recurrence itself is smooth there).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if dO.shape != (inst.L, inst.dv):
        raise ValueError(f"dO must be {inst.L}x{inst.dv}, got {dO.shape}")
    arrs = (inst.Q.data, inst.K.data, inst.V.data,
            inst.gates.log_alpha, inst.gates.log_beta)
    O_base, states = _forward_raw(*arrs, keep_states=True)
    grads = []
    for n, a in enumerate(arrs):
        L, cols = a.shape
        g, j = np.empty_like(a), np.arange(cols)
        for i in range(L):
            P = np.repeat(a[None], 2 * cols, axis=0)
            P[j, i, j] += eps
            P[cols + j, i, j] -= eps
            head = (O_base[:i], states[i - 1]) if i else None
            loss = _loss_raw(*arrs[:n], P, *arrs[n + 1:], dO.data, head=head)
            g[i] = (loss[:cols] - loss[cols:]) / (2.0 * eps)
        grads.append(g)
    return GradBundle(*grads)
