"""Quadratic-time parallel form and its closed-form backward pass.

Output row t is a masked weighted sum over rows i <= t where query/key
weights carry the cumulative key-decay ratio b_t/b_i and values carry the
cumulative value-decay ratio d_t/d_i.  Every ratio is formed as
exp(log_b[t] - log_b[i]), from the prefix sums of
``gates.cumulative_log_decay``; neither raw cumulative products nor their
reciprocals are ever materialized, and the causal mask is realized purely
as slice bounds.  One row kernel, ``_rows``, forms each row's ratios,
decayed keys and values and weights on raw arrays whose leading axes are
a batch.  ``_forward_raw`` adds the weighted sum for a whole batch (the
causality check runs a group of perturbed trials in one call, each with
the bits of its own run); ``forward_parallel`` is that kernel on one
instance's arrays.  The backward takes the same rows unbatched, so the
O it re-forms for the dlogd identity is the forward's bit for bit.

Since t >= i, every ratio is <= 1: a large decay range can only underflow
a ratio towards a negligible 0, never overflow, so no range is refused.
The parallel form's job here is cross-validation against the recurrent
oracle.
"""

from __future__ import annotations

import numpy as np

from .gates import cumulative_log_decay
from .recurrent import GlaInstance, GradBundle
from .tensor import SeqTensor, check_sizes, suffix_sum_arr

__all__ = [
    "forward_parallel",
    "backward_parallel",
    "parallel_forward_cost",
]


def _rows(Q, K, V, la, lb):
    """Yield t, brel, drel, K (.) brel, V (.) drel and the weights A_{t,i} of row t, i <= t.

    Raw arrays whose leading axes are a batch; row t's arrays are
    (..., t+1, d), its weights (..., t+1).  Every op is elementwise or a
    sum within one batch element, so each element gets the bits of its
    own unbatched run.
    """
    log_b, log_d = cumulative_log_decay(la, lb)
    for t in range(Q.shape[-2]):
        brel = np.exp(log_b[..., t, None, :] - log_b[..., : t + 1, :])  # all <= 1
        drel = np.exp(log_d[..., t, None, :] - log_d[..., : t + 1, :])
        Kb = K[..., : t + 1, :] * brel
        Vd = V[..., : t + 1, :] * drel
        yield t, brel, drel, Kb, Vd, (Kb * Q[..., t, None, :]).sum(axis=-1)


def _forward_raw(Q, K, V, la, lb) -> np.ndarray:
    """The parallel form's O on raw arrays, leading axes a batch.

    O takes the inputs' result dtype, as the recurrent kernels' results
    do, so a longdouble run stays longdouble.
    """
    O = np.empty((*Q.shape[:-1], V.shape[-1]), np.result_type(Q, K, V, la, lb))
    for t, _, _, _, Vd, w in _rows(Q, K, V, la, lb):
        O[..., t, :] = (w[..., None] * Vd).sum(axis=-2)
    return O


@np.errstate(all="ignore")
def forward_parallel(inst: GlaInstance) -> SeqTensor:
    """o_t = sum_{i<=t} <q_t (.) b_t/b_i, k_i> (v_i (.) d_t/d_i)."""
    return SeqTensor(_forward_raw(*inst.arrays))


def parallel_forward_cost(L: int, dk: int, dv: int) -> int:
    """Closed-form flop count of forward_parallel under the package convention.

    Row t sees n = t+1 positions and costs n(5dk+5dv-1) - dv: in ``_rows``
    the decay ratios 2n(dk+dv) (a subtract and an exp per entry), the
    decayed keys n*dk, the weights n*dk + n(dk-1) and the decayed values
    n*dv; then the forward's weighted sum n*dv + (n-1)dv.  Summed over
    n = 1..L.  No run counts these ops; the test suite pins this count to
    totals derived by hand from the ops.
    """
    check_sizes(L=L, dk=dk, dv=dv)
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
    Q, K, V, la, lb = inst.arrays
    L, dk, dv = inst.L, inst.dk, inst.dv

    O = np.empty((L, dv))  # the forward's output, for the dlogd identity
    dQ = np.zeros((L, dk))
    dK = np.zeros((L, dk))
    dV = np.zeros((L, dv))
    for t, brel, drel, Kb, Vd, w in _rows(Q, K, V, la, lb):
        g = (Vd * dOa[t]).sum(axis=1)                 # <do_t, v_i d_t/d_i>
        O[t] = (w[:, None] * Vd).sum(axis=0)
        dQ[t] = (g[:, None] * Kb).sum(axis=0)
        dK[: t + 1] += g[:, None] * (brel * Q[t])
        dV[: t + 1] += w[:, None] * (drel * dOa[t])

    dlogb = Q * dQ - K * dK
    dlogd = O * dOa - V * dV
    return GradBundle(dQ, dK, dV, suffix_sum_arr(dlogb), suffix_sum_arr(dlogd))
