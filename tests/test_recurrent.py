"""Recurrent oracle: forward semantics, exact backward, FD oracle."""

import numpy as np
import pytest

from glakit import (GateSeq, GlaInstance, ModelKind, SeqTensor, SplitMix64,
                    backward_recurrent_exact, backward_recurrent_fd,
                    forward_recurrent, make_instance, rel_err)

GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")


def tiny_instance(q, k, v, la, lb):
    return GlaInstance(SeqTensor(q), SeqTensor(k), SeqTensor(v),
                       GateSeq(np.asarray(la, float), np.asarray(lb, float)))


def rand_dO(L, dv, seed=11):
    return SeqTensor(SplitMix64(seed).fill_pm1(L, dv))


def naive_masked_attention(inst):
    """o_t = sum_{i<=t} <q_t, k_i> v_i, the ungated oracle."""
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    O = np.zeros((inst.L, inst.dv))
    for t in range(inst.L):
        for i in range(t + 1):
            O[t] += float(Q[t] @ K[i]) * V[i]
    return O


def test_single_step():
    inst = tiny_instance([[2.0, 1.0]], [[3.0, -1.0]], [[0.5, 4.0]],
                         [[-0.3, -0.1]], [[-0.2, -0.7]])
    o = forward_recurrent(inst).O.data
    assert np.allclose(o, (2 * 3 + 1 * -1) * np.array([[0.5, 4.0]]), rtol=1e-15)


def test_two_step_hand_unrolled():
    # scalar case: S_1 = 1, o_1 = 1; S_2 = 0.5*1 + 2 = 2.5, o_2 = 2.5
    inst = tiny_instance([[1.0], [1.0]], [[1.0], [1.0]], [[1.0], [2.0]],
                         [[0.0], [np.log(0.5)]], [[0.0], [0.0]])
    trace = forward_recurrent(inst, keep_states=True)
    assert np.allclose(trace.states[0], [[1.0]], rtol=1e-15)
    assert np.allclose(trace.states[1], [[2.5]], rtol=1e-15)
    assert np.allclose(trace.O.data, [[1.0], [2.5]], rtol=1e-15)


def test_ungated_reduces_to_masked_attention():
    inst = make_instance(ModelKind("vanilla"), L=10, dk=3, dv=2, seed=5)
    o = forward_recurrent(inst).O.data
    assert rel_err(o, naive_masked_attention(inst)) < 1e-12


def test_state_consistency_with_keep_states():
    inst = make_instance(ModelKind("general"), L=9, dk=2, dv=3, seed=6)
    trace = forward_recurrent(inst, keep_states=True)
    la, lb = inst.gates.log_alpha, inst.gates.log_beta
    for t in range(inst.L):
        prev = trace.states[t - 1] if t > 0 else np.zeros((2, 3))
        G = np.exp(la[t][:, None] + lb[t][None, :])
        S = G * prev + np.multiply.outer(inst.K.data[t], inst.V.data[t])
        assert np.array_equal(S, trace.states[t])


def test_forward_linear_in_q_and_v():
    base = make_instance(ModelKind("general"), L=7, dk=2, dv=2, seed=8)
    other = make_instance(ModelKind("general"), L=7, dk=2, dv=2, seed=9)

    def with_q(q):
        return GlaInstance(SeqTensor(q), base.K, base.V, base.gates)

    o_sum = forward_recurrent(with_q(base.Q.data + other.Q.data)).O.data
    o_parts = forward_recurrent(with_q(base.Q.data)).O.data + \
        forward_recurrent(with_q(other.Q.data)).O.data
    assert rel_err(o_sum, o_parts) < 1e-12

    def with_v(v):
        return GlaInstance(base.Q, base.K, SeqTensor(v), base.gates)

    o_sum = forward_recurrent(with_v(base.V.data + other.V.data)).O.data
    o_parts = forward_recurrent(with_v(base.V.data)).O.data + \
        forward_recurrent(with_v(other.V.data)).O.data
    assert rel_err(o_sum, o_parts) < 1e-12


def test_backward_zero_cotangent():
    inst = make_instance(ModelKind("general"), L=5, dk=2, dv=2, seed=10)
    dO = SeqTensor(np.zeros((5, 2)))
    for bundle in (backward_recurrent_exact(inst, dO),
                   backward_recurrent_fd(inst, dO)):
        for f in GRAD_FIELDS:
            assert np.max(np.abs(getattr(bundle, f).data)) <= 1e-12


def test_backward_single_step_chain_rule():
    inst = tiny_instance([[2.0, 1.0]], [[3.0, -1.0]], [[0.5, 4.0]],
                         [[-0.3, -0.1]], [[-0.2, -0.7]])
    dO = SeqTensor([[1.0, -2.0]])
    b = backward_recurrent_exact(inst, dO)
    q, k, v, do = (np.array(x) for x in ([2.0, 1.0], [3.0, -1.0], [0.5, 4.0], [1.0, -2.0]))
    assert np.allclose(b.dQ.data[0], float(do @ v) * k, rtol=1e-15)
    assert np.allclose(b.dK.data[0], float(do @ v) * q, rtol=1e-15)
    assert np.allclose(b.dV.data[0], float(q @ k) * do, rtol=1e-15)
    # S_0 = 0 kills the gate path at t = 1
    assert np.array_equal(b.dlog_alpha.data, np.zeros((1, 2)))
    assert np.array_equal(b.dlog_beta.data, np.zeros((1, 2)))


def test_exact_backward_matches_fd():
    inst = make_instance(ModelKind("general"), L=6, dk=3, dv=3, seed=12)
    dO = rand_dO(6, 3)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    ex = backward_recurrent_exact(inst, dO)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(ex, f).data, getattr(fd, f).data) <= 1e-6, f


def test_fd_on_linear_q_is_tight():
    # the loss is linear in Q, so central differences on Q are exact up to
    # roundoff in the loss evaluations
    inst = make_instance(ModelKind("general"), L=4, dk=2, dv=2, seed=13)
    dO = rand_dO(4, 2, seed=14)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    ex = backward_recurrent_exact(inst, dO)
    assert np.max(np.abs(fd.dQ.data - ex.dQ.data)) <= 1e-8


def test_causality_bitwise():
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=15)
    ref = forward_recurrent(inst).O.data
    pert_Q = inst.Q.data.copy()
    pert_Q[5:] = 123.0
    pert = GlaInstance(SeqTensor(pert_Q), inst.K, inst.V, inst.gates)
    got = forward_recurrent(pert).O.data
    assert np.array_equal(got[:5], ref[:5])


def test_fd_rejects_bad_eps():
    inst = make_instance(ModelKind("general"), L=2, dk=1, dv=1, seed=16)
    with pytest.raises(ValueError):
        backward_recurrent_fd(inst, rand_dO(2, 1), eps=0.0)


def test_cost_model_matches_metered_run():
    from glakit import recurrent_forward_cost
    from glakit.cost import Meter

    inst = make_instance(ModelKind("general"), L=9, dk=3, dv=2, seed=19)
    m = Meter()
    forward_recurrent(inst, meter=m)
    assert m.flops == recurrent_forward_cost(9, 3, 2)

