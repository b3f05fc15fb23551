"""Quadratic-time parallel form and its closed-form backward pass.

Output row t is a masked weighted sum over rows i <= t where query/key
weights carry the cumulative key-decay ratio b_t/b_i and values carry the
cumulative value-decay ratio d_t/d_i.  Every ratio is formed as
exp(log_b[t] - log_b[i]); neither raw cumulative products nor their
reciprocals are ever materialized, and the causal mask is realized purely
as slice bounds.  One row kernel, ``_rows``, forms each row's ratios,
decayed keys and values and weights; the forward adds the weighted sum,
and the backward takes the same rows, so the O it re-forms for the dlogd
identity is the forward's bit for bit.

Since t >= i, every ratio is <= 1: a large decay range can only underflow
a ratio towards a negligible 0, never overflow, so no range is refused.
The parallel form's job here is cross-validation against the recurrent
oracle.
"""

from __future__ import annotations

import numpy as np

from .gates import cumulative_log_decay
from .recurrent import GlaInstance, GradBundle
from .tensor import SeqTensor, suffix_sum_arr

__all__ = [
    "forward_parallel",
    "backward_parallel",
    "parallel_forward_cost",
]


def _rows(inst: GlaInstance):
    """Yield t, brel, drel, K (.) brel, V (.) drel and the weights A_{t,i} of row t, i <= t."""
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    cd = cumulative_log_decay(inst.gates)
    for t in range(inst.L):
        brel = np.exp(cd.log_b[t] - cd.log_b[: t + 1])  # (t+1) x dk, all <= 1
        drel = np.exp(cd.log_d[t] - cd.log_d[: t + 1])
        Kb = K[: t + 1] * brel
        Vd = V[: t + 1] * drel
        yield t, brel, drel, Kb, Vd, (Kb * Q[t]).sum(axis=1)


@np.errstate(all="ignore")
def forward_parallel(inst: GlaInstance) -> SeqTensor:
    """o_t = sum_{i<=t} <q_t (.) b_t/b_i, k_i> (v_i (.) d_t/d_i)."""
    O = np.empty((inst.L, inst.dv))
    for t, _, _, _, Vd, w in _rows(inst):
        O[t] = (w[:, None] * Vd).sum(axis=0)
    return SeqTensor(O)


def parallel_forward_cost(L: int, dk: int, dv: int) -> int:
    """Closed-form flop count of forward_parallel under the package convention.

    Row t sees n = t+1 positions and costs n(5dk+5dv-1) - dv: in ``_rows``
    the decay ratios 2n(dk+dv) (a subtract and an exp per entry), the
    decayed keys n*dk, the weights n*dk + n(dk-1) and the decayed values
    n*dv; then the forward's weighted sum n*dv + (n-1)dv.  Summed over
    n = 1..L.  No run counts these ops; the test suite pins this count to
    totals derived by hand from the ops.
    """
    return (5 * dk + 5 * dv - 1) * (L * (L + 1) // 2) - L * dv


@np.errstate(all="ignore")
def backward_parallel(inst: GlaInstance, dO: SeqTensor) -> GradBundle:
    """Closed-form gradients of <O, dO> for the parallel form.

    dQ/dK/dV come from the masked double sums (the <dO_t, v_i> inner
    products carry the d_t/d_i value decay).  Gate gradients use the
    log-decay identities
        dlogb_t = q_t (.) dq_t - k_t (.) dk_t
        dlogd_t = o_t (.) do_t - v_t (.) dv_t
    followed by suffix sums to reach dlog_alpha / dlog_beta.  The sign of
    the dlogb identity (query term positive) is pinned by the
    finite-difference oracle in the test suite.
    """
    dOa = inst.cotangent(dO)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    L, dk, dv = inst.L, inst.dk, inst.dv

    O = np.empty((L, dv))  # the forward's output, for the dlogd identity
    dQ = np.zeros((L, dk))
    dK = np.zeros((L, dk))
    dV = np.zeros((L, dv))
    for t, brel, drel, Kb, Vd, w in _rows(inst):
        g = (Vd * dOa[t]).sum(axis=1)                 # <do_t, v_i d_t/d_i>
        O[t] = (w[:, None] * Vd).sum(axis=0)
        dQ[t] = (g[:, None] * Kb).sum(axis=0)
        dK[: t + 1] += g[:, None] * (brel * Q[t])
        dV[: t + 1] += w[:, None] * (drel * dOa[t])

    dlogb = Q * dQ - K * dK
    dlogd = O * dOa - V * dV
    return GradBundle(dQ, dK, dV, suffix_sum_arr(dlogb), suffix_sum_arr(dlogd))
