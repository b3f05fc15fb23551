"""Parallel form: equivalence at any decay range, closed-form backward identities."""

import numpy as np
import pytest

from glakit import (ModelKind, SeqTensor, SplitMix64, backward_parallel,
                    backward_recurrent_exact, backward_recurrent_fd,
                    cumulative_log_decay, forward_parallel, forward_recurrent,
                    make_instance, rel_err, suffix_sum_arr)

GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")


def rand_dO(L, dv, seed=21):
    return SeqTensor(SplitMix64(seed).fill_pm1(L, dv))


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
    cd = cumulative_log_decay(inst.gates)
    return max(float(np.max(cd.log_b[0] - cd.log_b[-1])),
               float(np.max(cd.log_d[0] - cd.log_d[-1])))


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
        assert rel_err(getattr(bp, f).data, getattr(be, f).data) <= 1e-12, f


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
        assert np.max(np.abs(getattr(b, f).data)) == 0.0


def test_dlogb_identity_definitional():
    inst = make_instance(ModelKind("gla_beta_one"), L=8, dk=3, dv=2, seed=7)
    dO = rand_dO(8, 2, seed=8)
    b = backward_parallel(inst, dO)
    dlogb = inst.Q.data * b.dQ.data - inst.K.data * b.dK.data
    # dlog_alpha was assembled as the suffix sum of exactly this array
    assert np.array_equal(suffix_sum_arr(dlogb), b.dlog_alpha.data)


def test_dlogd_identity_definitional():
    inst = make_instance(ModelKind("general"), L=8, dk=3, dv=2, seed=9)
    dO = rand_dO(8, 2, seed=10)
    b = backward_parallel(inst, dO)
    O = forward_parallel(inst).data
    dlogd = O * dO.data - inst.V.data * b.dV.data
    assert np.array_equal(suffix_sum_arr(dlogd), b.dlog_beta.data)


def test_suffix_structure_of_dlog_alpha():
    inst = make_instance(ModelKind("general"), L=10, dk=2, dv=2, seed=11)
    b = backward_parallel(inst, rand_dO(10, 2, seed=12))
    dlogb = inst.Q.data * b.dQ.data - inst.K.data * b.dK.data
    diff = b.dlog_alpha.data[:-1] - b.dlog_alpha.data[1:]
    assert np.max(np.abs(diff - dlogb[:-1])) <= 1e-12


def test_backward_matches_fd():
    inst = make_instance(ModelKind("general"), L=8, dk=3, dv=3, seed=13)
    dO = rand_dO(8, 3, seed=14)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    b = backward_parallel(inst, dO)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(b, f).data, getattr(fd, f).data) <= 1e-6, f


def test_cost_model_matches_metered_run():
    from glakit import parallel_forward_cost
    from glakit.cost import Meter

    inst = make_instance(ModelKind("general"), L=11, dk=3, dv=2, seed=20)
    m = Meter()
    forward_parallel(inst, meter=m)
    assert m.flops == parallel_forward_cost(11, 3, 2)


def test_gradient_causality_dv_ignores_earlier_rows():
    inst = make_instance(ModelKind("general"), L=9, dk=2, dv=2, seed=15)
    dO_a = rand_dO(9, 2, seed=16).data.copy()
    dO_b = dO_a.copy()
    dO_b[:4] = 0.0  # rows before s=4 must not touch dV[4:]
    b_a = backward_parallel(inst, SeqTensor(dO_a))
    b_b = backward_parallel(inst, SeqTensor(dO_b))
    assert np.array_equal(b_a.dV.data[4:], b_b.dV.data[4:])
