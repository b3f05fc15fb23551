"""Recurrent oracle: forward semantics, exact backward, FD oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glakit import (ChunkPlan, ChunkPolicy, GateSeq, GlaInstance, ModelKind,
                    SeqTensor, SplitMix64, backward_chunkwise, backward_parallel,
                    backward_recurrent_exact, backward_recurrent_fd,
                    forward_recurrent, make_instance, rel_err)
from glakit.recurrent import _forward_raw

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


def scalar_fd(inst, dO, eps):
    """Reference oracle: one unbatched recurrence per perturbed entry, save/perturb/restore."""
    arrs = [a.copy() for a in (inst.Q.data, inst.K.data, inst.V.data,
                               inst.gates.log_alpha, inst.gates.log_beta)]

    def loss():
        O, _ = _forward_raw(*arrs)
        return float(np.sum(O * dO.data))

    grads = []
    for a in arrs:
        g = np.empty_like(a)
        for i, j in np.ndindex(a.shape):
            orig = a[i, j]
            a[i, j] = orig + eps
            lp = loss()
            a[i, j] = orig - eps
            lm = loss()
            a[i, j] = orig
            g[i, j] = (lp - lm) / (2.0 * eps)
        grads.append(g)
    return grads


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 8), dk=st.integers(1, 3), dv=st.integers(1, 3),
       kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       floor=st.sampled_from([0.5, 1e-12, 1e-300]),
       eps=st.sampled_from([1e-3, 1e-5, 1e-7]), seed=st.integers(0, 2**32))
@example(L=1, dk=1, dv=1, kind="general", floor=0.5, eps=1e-5, seed=1)
@example(L=1, dk=3, dv=2, kind="general", floor=1e-300, eps=1e-7, seed=2)
@example(L=5, dk=2, dv=3, kind="vanilla", floor=0.5, eps=1e-5, seed=3)  # log gates at 0
@example(L=2, dk=1, dv=1, kind="general", floor=0.5, eps=1e-5, seed=4)  # a one-step tail
@example(L=8, dk=2, dv=2, kind="gla_beta_one", floor=1e-300, eps=1e-5, seed=5)
@example(L=8, dk=3, dv=1, kind="vanilla", floor=0.5, eps=1e-5, seed=6)  # log gates at 0
def test_batched_fd_matches_scalar_reference_bitwise(L, dk, dv, kind, floor, eps, seed):
    inst = make_instance(ModelKind(kind), L, dk, dv, seed, gate_floor=floor)
    dO = rand_dO(L, dv, seed=seed + 1)
    fd = backward_recurrent_fd(inst, dO, eps)
    for f, want in zip(GRAD_FIELDS, scalar_fd(inst, dO, eps)):
        assert getattr(fd, f).data.tobytes() == want.tobytes(), f


def test_fd_starts_each_batch_at_the_prefix_state(monkeypatch):
    # a perturbation at row i cannot move S_0..S_{i-1}: one unperturbed run
    # of L steps, then per input one batch of L - i steps for each row i
    import glakit.recurrent as rec

    calls = {"outer_gate": 0, "_loss_raw": 0}

    def counted(name):
        fn = getattr(rec, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(rec, name, wrapper)

    counted("outer_gate")
    counted("_loss_raw")
    L = 8
    backward_recurrent_fd(make_instance(ModelKind("general"), L, 3, 2, seed=21), rand_dO(L, 2))
    assert calls["outer_gate"] == L + 5 * L * (L + 1) // 2 == 188  # not 5 * L**2 = 320
    assert calls["_loss_raw"] == 5 * L  # one batched loss per input row


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_fd_rejects_bad_eps(eps):
    # a NaN step would otherwise surface later as the gradient record's
    # generic non-finite error, which does not say what was wrong
    inst = make_instance(ModelKind("general"), L=2, dk=1, dv=1, seed=16)
    with pytest.raises(ValueError, match="eps"):
        backward_recurrent_fd(inst, rand_dO(2, 1), eps=eps)


def test_cost_model_matches_metered_run():
    # L=9, dk=3, dv=2: a metered run of the recurrence counted 360, frozen
    # here.  A step forms the gate, an add and an exp per entry (2*3*2 = 12),
    # gates the state and adds the rank-1 update k^T v (3*3*2 = 18), then
    # forms q S: 3*2 products and 2*2 adds (6 + 4 = 10).  40 per step, 360
    # over 9 steps.
    from glakit import recurrent_forward_cost

    assert recurrent_forward_cost(9, 3, 2) == 360



@pytest.mark.parametrize("backward", [
    backward_recurrent_exact,
    backward_recurrent_fd,
    backward_parallel,
    lambda inst, dO: backward_chunkwise(inst, dO, ChunkPlan(inst.L, 5),
                                        ChunkPolicy("recompute")),
], ids=["recurrent_exact", "recurrent_fd", "parallel", "chunkwise"])
@pytest.mark.parametrize("rows,cols", [(13, 2), (12, 3)])
def test_backwards_reject_a_cotangent_of_the_wrong_shape(backward, rows, cols):
    # one row or one column too many: without the check, chunkwise and the
    # exact backward would return gradients for a 13-row dO at L=12
    inst = make_instance(ModelKind("general"), L=12, dk=3, dv=2, seed=17)
    with pytest.raises(ValueError, match=rf"dO must be 12x2, got \({rows}, {cols}\)"):
        backward(inst, rand_dO(rows, cols))
