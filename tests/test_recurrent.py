"""Recurrent oracle: forward semantics, exact backward, FD oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glakit import (ChunkPlan, ChunkPolicy, GateSeq, GlaInstance, ModelKind,
                    SeqTensor, SplitMix64, backward_chunkwise, backward_parallel,
                    backward_recurrent_exact, backward_recurrent_fd,
                    forward_chunkwise, forward_parallel, forward_recurrent,
                    make_instance, rel_err)
from glakit.recurrent import _backward_raw, _forward_raw

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
            assert np.max(np.abs(getattr(bundle, f))) <= 1e-12


def test_backward_single_step_chain_rule():
    inst = tiny_instance([[2.0, 1.0]], [[3.0, -1.0]], [[0.5, 4.0]],
                         [[-0.3, -0.1]], [[-0.2, -0.7]])
    dO = SeqTensor([[1.0, -2.0]])
    b = backward_recurrent_exact(inst, dO)
    q, k, v, do = (np.array(x) for x in ([2.0, 1.0], [3.0, -1.0], [0.5, 4.0], [1.0, -2.0]))
    assert np.allclose(b.dQ[0], float(do @ v) * k, rtol=1e-15)
    assert np.allclose(b.dK[0], float(do @ v) * q, rtol=1e-15)
    assert np.allclose(b.dV[0], float(q @ k) * do, rtol=1e-15)
    # S_0 = 0 kills the gate path at t = 1
    assert np.array_equal(b.dlog_alpha, np.zeros((1, 2)))
    assert np.array_equal(b.dlog_beta, np.zeros((1, 2)))


def test_exact_backward_matches_fd():
    inst = make_instance(ModelKind("general"), L=6, dk=3, dv=3, seed=12)
    dO = rand_dO(6, 3)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    ex = backward_recurrent_exact(inst, dO)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(ex, f), getattr(fd, f)) <= 1e-6, f


def test_fd_on_linear_q_is_tight():
    # the loss is linear in Q, so central differences on Q are exact up to
    # roundoff in the loss evaluations
    inst = make_instance(ModelKind("general"), L=4, dk=2, dv=2, seed=13)
    dO = rand_dO(4, 2, seed=14)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    ex = backward_recurrent_exact(inst, dO)
    assert np.max(np.abs(fd.dQ - ex.dQ)) <= 1e-8


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
@example(L=16, dk=4, dv=4, kind="general", floor=0.5, eps=1e-5, seed=7)  # blocks of 12 and 4
@example(L=16, dk=8, dv=8, kind="general", floor=1e-12, eps=1e-5, seed=8)  # R=3, last block 1 row
@example(L=40, dk=1, dv=3, kind="gla_beta_one", floor=0.5, eps=1e-5, seed=9)  # q 2 of 18 copies
def test_batched_fd_matches_scalar_reference_bitwise(L, dk, dv, kind, floor, eps, seed):
    inst = make_instance(ModelKind(kind), L, dk, dv, seed, gate_floor=floor)
    dO = rand_dO(L, dv, seed=seed + 1)
    fd = backward_recurrent_fd(inst, dO, eps)
    for f, want in zip(GRAD_FIELDS, scalar_fd(inst, dO, eps)):
        assert getattr(fd, f).tobytes() == want.tobytes(), f


def test_fd_starts_each_batch_at_the_prefix_state(monkeypatch):
    # a perturbation at row i cannot move S_0..S_{i-1}: one unperturbed run
    # (by the block, through ``gates.carry``, so no ``_step``), then each
    # block of R = max(1, 2**15 // (2W L dv)) rows is swept once from its
    # first row.  At step t the block's earlier rows take one plain state
    # update on the unbatched inputs, their non-q copies only, and row t
    # joins with one perturbed update of all 2W copies.  ``_step`` is the
    # state update alone, so k, not q, carries the input batch
    import glakit.recurrent as rec

    steps, blocks = [], []
    step, loss_raw = rec._step, rec._loss_raw

    def logged_step(S, k, *rest, **kw):
        steps.append((S.shape[:-2], k.shape[:-1]))  # (state batch, input batch)
        return step(S, k, *rest, **kw)

    def logged_loss(*args):
        blocks.append(args[4])  # the block's first row
        return loss_raw(*args)

    monkeypatch.setattr(rec, "_step", logged_step)
    monkeypatch.setattr(rec, "_loss_raw", logged_loss)
    for L, dk, dv, R, n_steps in [(8, 3, 2, 8, 15),     # 2**15 // 416 = 78 > L: one block
                                  (16, 4, 4, 12, 34),   # 2**15 // 2560: rows 0-11, 12-15
                                  (16, 8, 8, 3, 61)]:   # 2**15 // 10240: last block one row
        inst = make_instance(ModelKind("general"), L, dk, dv, seed=21)
        steps.clear()
        forward_recurrent(inst)
        forward_recurrent(inst, keep_states=True)
        assert steps == []
        blocks.clear()
        backward_recurrent_fd(inst, rand_dO(L, dv))
        W = 3 * dk + 2 * dv
        want = []
        for start in range(0, L, R):
            for t in range(start, L):
                n = min(t - start, R)
                if n:
                    want.append(((n, 2, W - dk), ()))  # no q copy, no gate per copy
                if t - start < R:
                    want.append(((), (2, W)))  # row t joins from S_{t-1}
        assert blocks == list(range(0, L, R))
        assert steps == want
        assert len(steps) == n_steps  # sum over blocks of (rows + L - start - 1)


def vecmat(x, M):
    """x M as a loop over the rows of M, ascending: the triple loop's order."""
    r = x[0] * M[0]
    for i in range(1, len(x)):
        r = r + x[i] * M[i]
    return r


def stepwise(inst, dO):
    """O, every state and the exact gradients, one step and one product at a time."""
    Q, K, V, la, lb = inst.arrays
    dOa = dO.data
    L, dk, dv = inst.L, inst.dk, inst.dv
    O = np.empty((L, dv))
    states = []
    S = np.zeros((dk, dv))
    for t in range(L):
        S = np.exp(la[t][:, None] + lb[t][None, :]) * S + np.multiply.outer(K[t], V[t])
        O[t] = vecmat(Q[t], S)
        states.append(S)
    dQ, dK, dla = (np.empty((L, dk)) for _ in range(3))
    dV, dlb = np.empty((L, dv)), np.empty((L, dv))
    dS = np.zeros((dk, dv))
    for t in range(L - 1, -1, -1):
        dS = dS + np.multiply.outer(Q[t], dOa[t])
        dQ[t] = vecmat(dOa[t], states[t].T)
        dK[t] = vecmat(V[t], dS.T)
        dV[t] = vecmat(K[t], dS)
        G = np.exp(la[t][:, None] + lb[t][None, :])
        gate_path = G * (states[t - 1] if t else np.zeros((dk, dv))) * dS
        dla[t] = gate_path.sum(axis=1)
        dlb[t] = gate_path.sum(axis=0)
        dS = G * dS
    return O, states, (dQ, dK, dV, dla, dlb)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 40), dk=st.integers(1, 6), dv=st.integers(1, 6),
       kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       floor=st.sampled_from([0.5, 1e-12, 1e-300]), T=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32))
@example(L=7, dk=1, dv=1, kind="general", floor=0.5, T=3, seed=1)  # blocks 3, 3 and 1
@example(L=1, dk=2, dv=3, kind="retnet", floor=1e-300, T=2, seed=2)  # one ragged block
@example(L=70, dk=64, dv=64, kind="general", floor=0.5, T=None, seed=3)  # real budget: 32, 32, 6
def test_block_products_match_a_per_step_loop_bitwise(L, dk, dv, kind, floor, T, seed):
    # a block of T steps forms its O rows, and its dQ, dK, dV and gate
    # sums, with one product each: the bits are a product per step's,
    # wherever the block boundaries fall.  T=None keeps the real budget
    import glakit.recurrent as rec

    inst = make_instance(ModelKind(kind), L, dk, dv, seed, gate_floor=floor)
    dO = rand_dO(L, dv, seed=seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        if T is None:  # the real budget, which its one example crosses
            assert L > rec._BLOCK // (dk * dv)
        else:
            mp.setattr(rec, "_BLOCK", T * dk * dv)
        O = forward_recurrent(inst).O.data
        trace = forward_recurrent(inst, keep_states=True)
        got = backward_recurrent_exact(inst, dO)
    want_O, want_states, want_g = stepwise(inst, dO)
    assert O.tobytes() == trace.O.data.tobytes() == want_O.tobytes()
    assert [S.tobytes() for S in trace.states] == [S.tobytes() for S in want_states]
    for f, want in zip(GRAD_FIELDS, want_g):
        assert getattr(got, f).tobytes() == want.tobytes(), f


def test_raw_backward_runs_in_its_inputs_dtype():
    # the exact backward's buffers take its inputs' dtype: a longdouble
    # run stays longdouble and agrees with the fp64 run, whose bytes are
    # the public backward's
    inst = make_instance(ModelKind("general"), L=24, dk=3, dv=4, seed=23)
    dO = rand_dO(24, 4)
    g64 = _backward_raw(*inst.arrays, dO.data)[1:]
    g = _backward_raw(*(a.astype(np.longdouble) for a in (*inst.arrays, dO.data)))[1:]
    public = backward_recurrent_exact(inst, dO)
    for f, x, x64 in zip(GRAD_FIELDS, g, g64):
        assert x.dtype == np.longdouble and x64.dtype == np.float64, f
        assert x64.tobytes() == getattr(public, f).tobytes(), f
        assert np.max(np.abs(x - x64)) <= 1e-13 * np.max(np.abs(x64)), f


def test_raw_forward_runs_in_its_inputs_dtype():
    # O and the states take the inputs' dtype: a longdouble run stays
    # longdouble and agrees with the fp64 run
    inst = make_instance(ModelKind("general"), L=24, dk=3, dv=4, seed=22)
    O64, states64 = _forward_raw(*inst.arrays, keep_states=True)
    O, states = _forward_raw(*(a.astype(np.longdouble) for a in inst.arrays), keep_states=True)
    assert O.dtype == states[-1].dtype == np.longdouble
    assert O64.dtype == states64[-1].dtype == np.float64
    assert np.max(np.abs(O - O64)) <= 1e-13 * np.max(np.abs(O64))


# Which of the five inputs (Q, K, V, log_alpha, log_beta) carry the batch axis.
BATCHED = {"stack": (True,) * 5,
           "shared K and V": (True, False, False, True, True),
           "shared gates": (True, True, True, False, False)}


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(sorted(BATCHED)), L=st.integers(1, 12), dk=st.integers(1, 3),
       dv=st.integers(1, 3), B=st.integers(1, 3), T=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       floor=st.sampled_from([0.5, 1e-12, 1e-300]), seed=st.integers(0, 2**32))
@example(layout="shared K and V", L=7, dk=2, dv=3, B=3, T=3, kind="general", floor=0.5, seed=1)
@example(layout="shared gates", L=7, dk=3, dv=2, B=2, T=2, kind="general", floor=0.5, seed=2)
@example(layout="stack", L=5, dk=1, dv=1, B=3, T=1, kind="general", floor=1e-12, seed=3)
def test_batched_block_forward_matches_each_elements_own_run(layout, L, dk, dv, B, T, kind,
                                                             floor, seed):
    # a block's k_t^T v_t terms are one multiply into its slots, and its
    # gates one outer_gate carried over them: both broadcast the inputs'
    # batch axes, shared or not, and each element gets the bytes of its own
    # unbatched run, whichever slot layout, wherever the blocks of T fall
    import glakit.recurrent as rec

    insts = [make_instance(ModelKind(kind), L, dk, dv, seed + b, gate_floor=floor)
             for b in range(B)]
    arrays = [np.stack(a) if batched else a[0]
              for a, batched in zip(zip(*(inst.arrays for inst in insts)), BATCHED[layout])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rec, "_BLOCK", T * B * dk * dv)
        (O, none), (O_kept, S) = (_forward_raw(*arrays, keep_states=k) for k in (False, True))
    assert none is None and S.shape == (B, L + 1, dk, dv)
    for b in range(B):
        want_O, want_S = _forward_raw(*(a[b] if batched else a
                                        for a, batched in zip(arrays, BATCHED[layout])),
                                      keep_states=True)
        assert O[b].tobytes() == O_kept[b].tobytes() == want_O.tobytes()
        assert S[b].tobytes() == want_S.tobytes()


def test_an_empty_batch_gives_an_empty_output():
    # as the chunkwise raw forward does: no element, no division by the batch size
    from glakit.chunkwise import _forward_raw as chunk_forward_raw

    arrays = [np.zeros((0, 5, 2))] * 5
    (O, none), (O_kept, S) = (_forward_raw(*arrays, keep_states=k) for k in (False, True))
    assert none is None and O.shape == O_kept.shape == (0, 5, 2) and S.shape == (0, 6, 2, 2)
    assert chunk_forward_raw(*arrays, ChunkPlan(5, 2), False)[0].shape == O.shape


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       floor=st.sampled_from([0.5, 0.05, 1e-12, 1e-300]), L=st.integers(1, 24),
       dk=st.integers(1, 4), dv=st.integers(1, 4), C=st.integers(1, 26),
       seed=st.integers(0, 2**32))
@example(kind="general", floor=0.5, L=1, dk=1, dv=1, C=1, seed=1)
@example(kind="general", floor=0.05, L=10, dk=3, dv=2, C=4, seed=2)  # chunks 4, 4 and a ragged 2
@example(kind="general", floor=1e-300, L=24, dk=2, dv=2, C=2, seed=4)  # chunk 1 overflows
def test_every_form_matches_the_longdouble_judge(kind, floor, L, dk, dv, C, seed):
    # the judge is the recurrence and its exact backward run on longdouble
    # copies; on a host whose longdouble is fp64 it would be no better than
    # the forms it judges, so that host fails here.  The tolerances are the
    # fixed ones, 1e-9 for outputs and 1e-6 for gradients
    assert np.finfo(np.longdouble).eps < 1e-18
    inst = make_instance(ModelKind(kind), L, dk, dv, seed, gate_floor=floor)
    dO = rand_dO(L, dv, seed=seed + 1)
    wide = [a.astype(np.longdouble) for a in (*inst.arrays, dO.data)]
    want_O, *want = _backward_raw(*wide)
    runs = [(forward_recurrent(inst).O, backward_recurrent_exact(inst, dO)),
            (forward_parallel(inst), backward_parallel(inst, dO))]
    plan = ChunkPlan(L, C)
    la, lb = inst.gates.log_alpha, inst.gates.log_beta
    worst = min(min(la[s:e].sum(axis=0).min(), lb[s:e].sum(axis=0).min())
                for s, e in plan.boundaries)
    for pol in (ChunkPolicy("materialize"), ChunkPolicy("recompute")):
        if worst < -math.log(np.finfo(np.float64).max):
            # a fixed plan overflows K / Bdag there: the known defect, named by chunk
            for run in (lambda: forward_chunkwise(inst, plan, pol),
                        lambda: backward_chunkwise(inst, dO, plan, pol)):
                with pytest.raises(ValueError, match=r"non-finite values from chunk \d+ "):
                    run()
        elif worst >= -600:  # the decay bound below which item 15's bounded plans cut
            runs.append((forward_chunkwise(inst, plan, pol)[0],
                         backward_chunkwise(inst, dO, plan, pol)[0]))
    for O, grads in runs:
        assert rel_err(O.data, want_O) <= 1e-9
        for f, w in zip(GRAD_FIELDS, want):
            assert rel_err(getattr(grads, f), w) <= 1e-6, f
    # between -600 and -ln(DBL_MAX) a fixed plan's outcome is not pinned:
    # it may pass, lose accuracy or raise, so such a case is dropped
    assume(not -math.log(np.finfo(np.float64).max) <= worst < -600)


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
