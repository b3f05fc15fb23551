"""Parallel form: equivalence at any decay range, closed-form backward identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glakit import parallel, recurrent
from glakit import (ModelKind, SeqTensor, SplitMix64, backward_parallel,
                    backward_recurrent_exact, backward_recurrent_fd,
                    cumulative_log_decay, forward_parallel, forward_recurrent,
                    make_instance, rel_err, suffix_sum_arr)

GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")


def rand_dO(L, dv, seed=21):
    return SeqTensor(SplitMix64(seed).fill_pm1(L, dv))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       L=st.integers(1, 40), dk=st.integers(1, 4), dv=st.integers(1, 4), B=st.integers(1, 4),
       floor=st.sampled_from([0.5, 0.05, 1e-3, 1e-12, 1e-300]), seed=st.integers(0, 2**32))
def test_batched_raw_forms_match_each_elements_own_run(kind, L, dk, dv, B, floor, seed):
    # the causality check stacks a group of trials and runs each raw kernel
    # once; every batch element must get the bytes of its own public call.
    # L runs past numpy's 8-element pairwise-sum block, and dv = 1 makes the
    # forward's row sum an inner-axis reduction
    insts = [make_instance(ModelKind(kind), L, dk, dv, seed=seed + b, gate_floor=floor)
             for b in range(B)]
    stacked = [np.stack(a) for a in zip(*(inst.arrays for inst in insts))]
    with np.errstate(all="ignore"):
        recs, _ = recurrent._forward_raw(*stacked)
        pars = parallel._forward_raw(*stacked)
    for inst, rec, par in zip(insts, recs, pars, strict=True):
        assert rec.tobytes() == forward_recurrent(inst).O.data.tobytes()
        assert par.tobytes() == forward_parallel(inst).data.tobytes()


def test_raw_forward_runs_in_its_inputs_dtype():
    # O takes the inputs' result dtype: a longdouble run stays longdouble and
    # agrees with the longdouble recurrent run, nearer than the fp64 run does,
    # so it was not rounded to fp64 on the way
    inst = make_instance(ModelKind("general"), L=24, dk=3, dv=4, seed=24)
    wide = [a.astype(np.longdouble) for a in inst.arrays]
    O = parallel._forward_raw(*wide)
    want, _ = recurrent._forward_raw(*wide)
    O64 = parallel._forward_raw(*inst.arrays)
    assert O.dtype == np.longdouble and O64.dtype == np.float64
    assert O64.tobytes() == forward_parallel(inst).data.tobytes()
    assert rel_err(O, want) <= 1e-9
    assert rel_err(O, want) < rel_err(O64, want)


def test_ungated_equals_masked_matmul():
    inst = make_instance(ModelKind("vanilla"), L=12, dk=3, dv=2, seed=1)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    ref = np.zeros((12, 2))
    for t in range(12):
        for i in range(t + 1):
            ref[t] += float(Q[t] @ K[i]) * V[i]
    assert rel_err(forward_parallel(inst).data, ref) < 1e-12


def test_single_step():
    inst = make_instance(ModelKind("general"), L=1, dk=3, dv=2, seed=2)
    o = forward_parallel(inst).data
    want = float(inst.Q.data[0] @ inst.K.data[0]) * inst.V.data[0]
    assert np.allclose(o[0], want, rtol=1e-14)


def test_matches_recurrent():
    inst = make_instance(ModelKind("general"), L=32, dk=4, dv=4, seed=3)
    assert rel_err(forward_parallel(inst).data,
                   forward_recurrent(inst).O.data) <= 1e-9


def decay_range(inst):
    """Largest log-decay any ratio log_b[t] - log_b[i] (or log_d) spans."""
    log_b, log_d = cumulative_log_decay(inst.gates.log_alpha, inst.gates.log_beta)
    return max(float(np.max(log_b[0] - log_b[-1])),
               float(np.max(log_d[0] - log_d[-1])))


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_forward_matches_recurrent_at_huge_decay_range(seed):
    # Every ratio is <= 1, so a huge range only underflows ratios to 0.
    inst = make_instance(ModelKind("general"), L=1024, dk=2, dv=2, seed=seed,
                         gate_floor=1e-300)
    assert decay_range(inst) >= 1e5
    assert rel_err(forward_parallel(inst).data,
                   forward_recurrent(inst).O.data) <= 1e-12


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_backward_matches_exact_at_large_decay_range(seed):
    inst = make_instance(ModelKind("general"), L=64, dk=3, dv=3, seed=seed,
                         gate_floor=1e-12)
    assert decay_range(inst) > 600
    dO = rand_dO(64, 3, seed=seed + 100)
    bp = backward_parallel(inst, dO)
    be = backward_recurrent_exact(inst, dO)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(bp, f), getattr(be, f)) <= 1e-12, f


def test_guard_headroom_small_decay():
    # 256 * |ln 0.99| ~ 2.6: a mild range over a long sequence
    inst = make_instance(ModelKind("general"), L=256, dk=2, dv=2, seed=5,
                         gate_floor=0.99)
    assert rel_err(forward_parallel(inst).data,
                   forward_recurrent(inst).O.data) <= 1e-9


def test_backward_zero_cotangent():
    inst = make_instance(ModelKind("general"), L=6, dk=2, dv=3, seed=6)
    b = backward_parallel(inst, SeqTensor(np.zeros((6, 3))))
    for f in GRAD_FIELDS:
        assert np.max(np.abs(getattr(b, f))) == 0.0


def test_dlogb_identity_definitional():
    inst = make_instance(ModelKind("gla_beta_one"), L=8, dk=3, dv=2, seed=7)
    dO = rand_dO(8, 2, seed=8)
    b = backward_parallel(inst, dO)
    dlogb = inst.Q.data * b.dQ - inst.K.data * b.dK
    # dlog_alpha was assembled as the suffix sum of exactly this array
    assert np.array_equal(suffix_sum_arr(dlogb), b.dlog_alpha)


def test_dlogd_identity_definitional():
    inst = make_instance(ModelKind("general"), L=8, dk=3, dv=2, seed=9)
    dO = rand_dO(8, 2, seed=10)
    b = backward_parallel(inst, dO)
    O = forward_parallel(inst).data
    dlogd = O * dO.data - inst.V.data * b.dV
    assert np.array_equal(suffix_sum_arr(dlogd), b.dlog_beta)


def test_suffix_structure_of_dlog_alpha():
    inst = make_instance(ModelKind("general"), L=10, dk=2, dv=2, seed=11)
    b = backward_parallel(inst, rand_dO(10, 2, seed=12))
    dlogb = inst.Q.data * b.dQ - inst.K.data * b.dK
    diff = b.dlog_alpha[:-1] - b.dlog_alpha[1:]
    assert np.max(np.abs(diff - dlogb[:-1])) <= 1e-12


def test_backward_matches_fd():
    inst = make_instance(ModelKind("general"), L=8, dk=3, dv=3, seed=13)
    dO = rand_dO(8, 3, seed=14)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    b = backward_parallel(inst, dO)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(b, f), getattr(fd, f)) <= 1e-6, f


@pytest.mark.parametrize("L", (1, 2, 11, 40))
def test_cost_model_matches_metered_run(L):
    # dk=3, dv=2: the totals a metered run of the form counted, frozen here.
    # Row t sees n = t+1 positions: the decay ratios, a subtract and an exp
    # per entry (2n*(3+2) = 10n), the decayed keys (3n), the weights (3n
    # products + 2n adds = 5n), the decayed values (2n) and the weighted sum
    # (2n products + 2(n-1) adds = 4n - 2).  24n - 2 per row: L=1 is 22,
    # L=2 is 22 + 46 = 68, L=11 is 24*66 - 2*11 = 1562, L=40 is
    # 24*820 - 2*40 = 19600.
    from glakit import parallel_forward_cost

    assert parallel_forward_cost(L, 3, 2) == {1: 22, 2: 68, 11: 1562, 40: 19600}[L]


def test_gradient_causality_dv_ignores_earlier_rows():
    inst = make_instance(ModelKind("general"), L=9, dk=2, dv=2, seed=15)
    dO_a = rand_dO(9, 2, seed=16).data.copy()
    dO_b = dO_a.copy()
    dO_b[:4] = 0.0  # rows before s=4 must not touch dV[4:]
    b_a = backward_parallel(inst, SeqTensor(dO_a))
    b_b = backward_parallel(inst, SeqTensor(dO_b))
    assert np.array_equal(b_a.dV[4:], b_b.dV[4:])
