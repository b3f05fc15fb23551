"""Ground-truth recurrent form and the finite-difference gradient oracle.

The step-by-step recurrence

    S_t = (alpha_t^T beta_t) (.) S_{t-1} + k_t^T v_t,      o_t = q_t S_t

is the reference every other form is validated against.  The step gate
matrices are formed directly in log space, exp(log_alpha[i] + log_beta[j]),
one exp per element (``gates.outer_gate``): the same rule used for every
decay factor in the library (exactly one rounding between log
accumulator and factor).

Gradients come in two independent flavours: an exact reverse-mode sweep
through the stored states, and central finite differences on the scalar
loss <O, dO>.  The finite-difference oracle is the arbiter for every
analytic backward pass in the package.

Only the state recurrences run step by step, and both are
``gates.carry``, the package's one gated-carry loop: the forward's states
and, on reversed views, the exact backward's state cotangents.  The steps
go in blocks of T, at most ``_BLOCK`` state elements a block: a block's
gates and its k_t^T v_t terms are formed at once, its states go into the
slots of one array, and each product that reads them (the forward's
o_t = q_t S_t, the exact backward's dQ, dK, dV and gate sums) is one
``mm`` over the block.  The carry, ``mm`` and the sums are elementwise
over their batch axes, so a block's results have the bits of a step and
a product per step, wherever its boundaries fall.  ``_step``, the update
of a single step, is the FD oracle's, whose perturbed rows join one at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .gates import GateSeq, carry, outer_gate
from .tensor import SeqTensor, check_sizes, mm, readonly, record_array

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
        Q, K, V, la, lb = self.Q, self.K, self.V, self.gates.log_alpha, self.gates.log_beta
        if not (Q.shape == K.shape == la.shape and V.shape == lb.shape):
            raise ValueError(f"shapes disagree: Q {Q.shape}, K {K.shape}, V {V.shape}, log_alpha "
                             f"{la.shape}, log_beta {lb.shape}")

    @property
    def L(self) -> int:
        return self.Q.shape[0]

    @property
    def dk(self) -> int:
        return self.Q.shape[1]

    @property
    def dv(self) -> int:
        return self.V.shape[1]

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """The raw (Q, K, V, log_alpha, log_beta) arrays, for the raw kernels."""
        return self.Q.data, self.K.data, self.V.data, self.gates.log_alpha, self.gates.log_beta

    def cotangent(self, dO: SeqTensor) -> np.ndarray:
        """dO's array, once its shape is checked against the output's, L x dv.

        The one shape check of every backward's cotangent.
        """
        if dO.shape != (self.L, self.dv):
            raise ValueError(f"dO must be {self.L}x{self.dv}, got {dO.shape}")
        return dO.data


class ForwardTrace(NamedTuple):
    """Forward output O plus, optionally, every state S_1..S_L.

    ``states`` is one read-only (L, dk, dv) array, S_t in slot t - 1: the
    forward's own state slots past S_0, not a copy.
    """

    O: SeqTensor
    states: np.ndarray | None


@dataclass(frozen=True, slots=True)
class GradBundle:
    """All backward outputs: dQ, dK (L x dk), dV (L x dv), dlog_alpha, dlog_beta.

    Each field is given as an array and held as one, as GateSeq holds its
    gates: ``record_array``'s read-only 2-D fp64 array, so a non-finite
    gradient's error names its field.
    """

    dQ: np.ndarray
    dK: np.ndarray
    dV: np.ndarray
    dlog_alpha: np.ndarray
    dlog_beta: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, record_array(getattr(self, f.name), f.name)[0])


# The element budget of a block of state slots, T * B * dk * dv for a batch
# of B.  At the anchor's dk = dv = 64, 2**17 elements (1 MiB in fp64) is 32
# steps a block: ``mm``'s dk numpy calls per product then cost two calls a
# step, and the exact backward's block products, which read their operands
# once per inner index, find them in cache.  At L=4096 on 2 vCPUs, 2**15
# left the forward and the backward slower than a product per step, and
# 2**19 ran the backward ~1.15x slower than 2**17 with 12 MiB more peak.
_BLOCK = 2**17


def _step(S, k, v, la, lb, out=None):
    """One state update on raw ndarrays: S_t = G_t (.) S_{t-1} + k_t^T v_t.

    Leading axes are a batch, broadcast between S and the step's rows.
    With ``out`` (which may be S) the state is written there.  The FD
    oracle's blocks step with it (``_loss_raw``); the forward steps a
    block at a time with ``gates.carry``, whose bits are this update's.
    """
    return np.add(np.multiply(outer_gate(la, lb), S, out=out),
                  k[..., :, None] * v[..., None, :], out=out)


def _forward_raw(Q, K, V, la, lb, keep_states: bool = False):
    """The recurrence on raw ndarrays from S_0 = 0, leading axes a batch: (O, S).

    The batch shape broadcasts the inputs' leading axes, and O and the
    states take the inputs' result dtype, so a longdouble run stays
    longdouble.  The steps go in blocks of T = max(1, _BLOCK // (B dk dv)),
    B the batch size, or 1 for an empty batch.  A block of n steps writes
    its k_t^T v_t terms into slots 1..n of S (axis -3) with one multiply,
    slot 0 holding the state before the block, and ``gates.carry`` gates
    each slot's predecessor by its step's gate (one ``outer_gate`` for the
    block, at most _BLOCK elements) and adds it in: kv + G S rounds as
    G S + kv does, so the states have the bits of a step at a time.  Then
    its n rows of O are one ``mm`` of its q rows with those slots.  With
    keep_states S holds all L + 1 slots, S_0 = 0 to S_L, and is returned
    read-only; otherwise it holds T + 1, the last carried to slot 0
    between blocks, and None is returned in its place.
    """
    L, dk = Q.shape[-2:]
    dv = V.shape[-1]
    dtype = np.result_type(Q, K, V, la, lb)
    batch = np.broadcast_shapes(*(a.shape[:-2] for a in (Q, K, V, la, lb)))
    T = max(1, _BLOCK // (max(1, math.prod(batch)) * dk * dv))
    O = np.empty((*batch, L, dv), dtype)
    S = np.zeros((*batch, (L if keep_states else min(T, L)) + 1, dk, dv), dtype)
    for t0 in range(0, L, T):
        t1 = min(t0 + T, L)
        n = t1 - t0
        if keep_states:
            blk = S[..., t0:t1 + 1, :, :]
        else:
            blk = S
            if t0:  # the last block was full: its last state is in slot T
                blk[..., 0, :, :] = blk[..., T, :, :]
        np.multiply(K[..., t0:t1, :, None], V[..., t0:t1, None, :], out=blk[..., 1:n + 1, :, :])
        carry(outer_gate(la[..., t0:t1, :], lb[..., t0:t1, :]), blk)
        O[..., t0:t1, :] = mm(Q[..., t0:t1, None, :], blk[..., 1:n + 1, :, :])[..., 0, :]
    return O, (readonly(S) if keep_states else None)


@np.errstate(all="ignore")
def forward_recurrent(inst: GlaInstance, keep_states: bool = False) -> ForwardTrace:
    """Run the recurrence from S_0 = 0; optionally record every S_t."""
    O, S = _forward_raw(*inst.arrays, keep_states=keep_states)
    return ForwardTrace(SeqTensor(O), None if S is None else S[1:])


def recurrent_forward_cost(L: int, dk: int, dv: int) -> int:
    """Closed-form flop count of forward_recurrent: L steps at one fixed cost.

    A step forms the gate, an add and an exp per entry (2 dk dv), gates the
    state and adds the rank-1 update k_t^T v_t (3 dk dv), then forms
    o_t = q_t S_t (dk dv + (dk-1) dv).  No run counts these ops; the
    test suite pins this count to a total derived by hand from the ops.
    """
    check_sizes(L=L, dk=dk, dv=dv)
    per_step = 2 * dk * dv + 3 * dk * dv + dk * dv + (dk - 1) * dv
    return L * per_step


def _backward_raw(Q, K, V, la, lb, dOa):
    """The exact backward on raw 2-D ndarrays: (O, dQ, dK, dV, dlog_alpha, dlog_beta).

    O is the forward's, which the backward runs for its states, so one call
    judges an output and its gradients.  O and the gradients take the
    inputs' result dtype, dOa's included.  The states are the forward's
    slots, read in place.  The steps go in the forward's blocks of T, the
    last block first.  In a block the q_t^T dO_t terms go into the block's
    slots of one buffer, and the adjoint
    dS_t = G_{t+1} (.) dS_{t+1} + q_t^T dO_t runs back over them as
    ``gates.carry`` on reversed views of the block's gates and slots;
    G_t (.) dS_t of its first step is carried to the block before it.
    Then the block's dQ rows (S_t dO_t^T), dK rows (dS_t v_t^T) and dV
    rows (k_t dS_t) are one ``mm`` each, and its gate paths
    G_t (.) S_{t-1} (.) dS_t one product with their two sums.  dQ goes
    by the block, not in one product over all L states: a product reads
    its operands once per inner index, and a block's states stay in cache
    where all L do not (at L=4096, dk=dv=64 the one product left the
    backward ~1.15x slower).
    """
    L, dk = Q.shape
    dv = V.shape[1]
    dtype = np.result_type(Q, K, V, la, lb, dOa)
    O, S = _forward_raw(Q, K, V, la, lb, keep_states=True)
    T = max(1, _BLOCK // (dk * dv))
    dQ = np.empty((L, dk), dtype)
    dK = np.empty((L, dk), dtype)
    dV = np.empty((L, dv), dtype)
    dla = np.empty((L, dk), dtype)
    dlb = np.empty((L, dv), dtype)
    buf = np.empty((min(T, L), dk, dv), dtype)
    dS_in = np.zeros((dk, dv), dtype)  # G_{t1} (.) dS_{t1} from the block after
    for t0 in reversed(range(0, L, T)):
        t1 = min(t0 + T, L)
        dS = buf[:t1 - t0]
        np.multiply(Q[t0:t1, :, None], dOa[t0:t1, None, :], out=dS)  # the o_t = q_t S_t paths
        dS[-1] += dS_in
        G = outer_gate(la[t0:t1], lb[t0:t1])
        carry(G[:0:-1], dS[::-1])
        dS_in = G[0] * dS[0]
        dQ[t0:t1] = mm(S[t0 + 1:t1 + 1], dOa[t0:t1, :, None])[..., 0]
        dK[t0:t1] = mm(dS, V[t0:t1, :, None])[..., 0]
        dV[t0:t1] = mm(K[t0:t1, None, :], dS)[:, 0]
        G *= S[t0:t1]  # S_{t-1}, slot 0 the zero state
        G *= dS
        G.sum(axis=2, out=dla[t0:t1])
        G.sum(axis=1, out=dlb[t0:t1])
    return O, dQ, dK, dV, dla, dlb


@np.errstate(all="ignore")
def backward_recurrent_exact(inst: GlaInstance, dO: SeqTensor) -> GradBundle:
    """Reverse-mode sweep through the recurrence with all states materialized.

    Loss convention: scalar loss <O, dO> with the caller's dO.  Gate
    gradients are taken directly in log-gate coordinates:
    dlog_alpha_t[i] = sum_j G_t[i,j] * S_{t-1}[i,j] * dS_t[i,j].  The
    products go a block of steps at a time (``_backward_raw``), with the
    bits of a product per step.
    """
    return GradBundle(*_backward_raw(*inst.arrays, inst.cotangent(dO))[1:])


def _loss_raw(arrs, dOa, O_base, states, start, P) -> np.ndarray:
    """<O, dO> of every perturbed copy of one block of rows, shape (R, 2, W).

    P[r, s, w] is input row start + r of the five inputs, split as they
    are, with scalar w moved by +eps (s = 0) or -eps (s = 1).  The block
    is swept once from row start.  At step t its rows before t take the
    plain state update together, in place, and their O rows are one
    ``mm``; row t joins with its perturbed update from S_{t-1}.  The q
    copies (w < dk) take no step after their own row: q_t enters only o_t,
    so their states are the unperturbed ones, and every other row of their
    O is O_base's.  Each copy's O is summed as one flat row, like
    np.sum(O * dO).
    """
    Q, K, V, la, lb = arrs
    L, dv = O_base.shape
    R, _, W, dk = P[0].shape
    O = np.empty((R, 2, W, L, dv))
    O[...] = O_base
    S = np.empty((R, 2, W - dk, dk, dv))  # the live copies' states, q copies left out
    for t in range(start, L):
        n = min(t - start, R)  # the block's rows before t
        if n:
            _step(S[:n], K[t], V[t], la[t], lb[t], out=S[:n])
            O[:n, :, dk:, t] = mm(Q[t, None], S[:n])[..., 0, :]
        if n < R:  # row t joins from S_{t-1}, slot t of the states
            q, *rest = (p[n] for p in P)
            S_t = _step(states[t], *rest)
            O[n, :, :, t] = mm(q[..., None, :], S_t)[..., 0, :]
            S[n] = S_t[:, dk:]
    return np.sum((O * dOa).reshape(R, 2, W, -1), axis=-1)


@np.errstate(all="ignore")
def backward_recurrent_fd(inst: GlaInstance, dO: SeqTensor, eps: float = 1e-5) -> GradBundle:
    """Central finite differences on <O, dO>, one scalar input at a time.

    A perturbation at row i moves neither S_0..S_{i-1} nor the O rows
    before i, so one unperturbed run records every state.  Row i of the
    five inputs makes 2W perturbed copies (W = 3 dk + 2 dv scalars; +eps
    at scalar w in copy (0, w), -eps in copy (1, w)).  The rows go in
    blocks of R = max(1, 2**15 // (2 W L dv)), so a block's O holds at
    most 2**15 elements (or one row's, when that is more), and each block
    is swept once from its first row (``_loss_raw``): a row joins with
    its perturbed step from S_{i-1}, and the block's earlier rows take
    the plain step on the unperturbed inputs together.  The q copies take
    no step after their own row, since q_i enters only o_i.  A block
    starting at row i takes one perturbed step per row and L - i - 1
    plain ones; scratch is O(R W L dv).  Each loss sums the copy's full
    flat O row, so the gradients have the bits of a run from S_0 = 0 per
    perturbed entry.  Log-gate entries are perturbed as-is, so the result
    is directly dlog_alpha / dlog_beta with no chain-rule conversion.  The
    perturbed evaluations bypass domain re-validation (a +eps step at
    log-gate 0 briefly leaves (0, 1]; the recurrence itself is smooth
    there).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    dOa = inst.cotangent(dO)
    arrs = inst.arrays
    O_base, states = _forward_raw(*arrs, keep_states=True)
    X = np.concatenate(arrs, axis=1)  # each row: that row of the five inputs, W scalars
    L, W = X.shape
    cuts = np.cumsum([a.shape[1] for a in arrs])[:-1]
    w = np.arange(W)
    R = max(1, 2**15 // (2 * W * L * inst.dv))
    G = np.empty((L, W))
    for i in range(0, L, R):
        P = np.empty((min(R, L - i), 2, W, W))
        P[...] = X[i:i + R, None, None]
        P[:, 0, w, w] += eps
        P[:, 1, w, w] -= eps
        loss = _loss_raw(arrs, dOa, O_base, states, i, np.split(P, cuts, axis=-1))
        G[i:i + R] = (loss[:, 0] - loss[:, 1]) / (2.0 * eps)
    return GradBundle(*np.split(G, cuts, axis=1))
