"""Chunkwise form: equivalence across C, policies, counters, reductions."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glakit import (ChunkPlan, ChunkPolicy, GateSeq, GlaInstance, ModelKind,
                    SeqTensor, SplitMix64, backward_chunkwise, backward_recurrent_exact,
                    backward_recurrent_fd, forward_chunkwise, forward_parallel,
                    forward_recurrent, make_instance, parallel_forward_cost, predict_cost,
                    recurrent_forward_cost, rel_err)
from glakit import chunkwise
from glakit.chunkwise import BLOCK, PANEL
from glakit.gates import chunk_factors
from glakit.tensor import suffix_sum_arr

GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")
MAT = ChunkPolicy("materialize")
REC = ChunkPolicy("recompute")


def rand_dO(L, dv, seed=31):
    return SeqTensor(SplitMix64(seed).fill_pm1(L, dv))


def test_single_chunk_matches_parallel():
    inst = make_instance(ModelKind("general"), L=9, dk=3, dv=2, seed=1)
    o, states, _ = forward_chunkwise(inst, ChunkPlan(9, 9), MAT)
    assert rel_err(o.data, forward_parallel(inst).data) <= 1e-12
    assert len(states) == 1


def test_unit_chunks_match_recurrent():
    inst = make_instance(ModelKind("general"), L=9, dk=2, dv=3, seed=2)
    o, _, _ = forward_chunkwise(inst, ChunkPlan(9, 1), MAT)
    assert rel_err(o.data, forward_recurrent(inst).O.data) <= 1e-12


def test_ragged_final_chunk_matches_recurrent():
    inst = make_instance(ModelKind("general"), L=8, dk=3, dv=3, seed=3)
    o, states, _ = forward_chunkwise(inst, ChunkPlan(8, 3), MAT)
    assert rel_err(o.data, forward_recurrent(inst).O.data) <= 1e-9
    assert len(states) == 3  # chunks 3+3+2


@pytest.mark.parametrize("C", range(1, 12))
def test_all_chunk_sizes_match_recurrent(C):
    inst = make_instance(ModelKind("general"), L=11, dk=3, dv=2, seed=4)
    ref = forward_recurrent(inst).O.data
    o, _, _ = forward_chunkwise(inst, ChunkPlan(11, C), MAT)
    assert rel_err(o.data, ref) <= 1e-9


def test_policies_same_output_no_states_for_recompute():
    inst = make_instance(ModelKind("general"), L=10, dk=2, dv=2, seed=5)
    plan = ChunkPlan(10, 4)
    om, sm, cm = forward_chunkwise(inst, plan, MAT)
    orc, src, crc = forward_chunkwise(inst, plan, REC)
    assert np.array_equal(om.data, orc.data)
    assert sm is not None and src is None
    assert cm.state_writes == 3 and crc.state_writes == 0
    assert cm.flops == crc.flops


def test_backward_zero_cotangent():
    inst = make_instance(ModelKind("general"), L=7, dk=2, dv=2, seed=6)
    for pol in (MAT, REC):
        b, _ = backward_chunkwise(inst, SeqTensor(np.zeros((7, 2))),
                                  ChunkPlan(7, 3), pol)
        for f in GRAD_FIELDS:
            assert np.max(np.abs(getattr(b, f))) == 0.0


def test_policy_gradients_identical_and_counters():
    inst = make_instance(ModelKind("general"), L=16, dk=3, dv=3, seed=7)
    plan = ChunkPlan(16, 4)
    dO = rand_dO(16, 3)
    bm, cm = backward_chunkwise(inst, dO, plan, MAT)
    br, cr = backward_chunkwise(inst, dO, plan, REC)
    for f in GRAD_FIELDS:
        assert np.array_equal(getattr(bm, f), getattr(br, f)), f
    assert plan.num_chunks == 4 and cm.flops == cr.flops
    # the traffic, pinned by value: both passes and predict_cost book it
    # through one ChunkPolicy.report, so measured == predicted cannot see it
    assert (cm.state_writes, cm.state_reads, cm.recompute_passes) == (4, 3, 0)
    assert (cr.state_writes, cr.state_reads, cr.recompute_passes) == (0, 0, 4)


def test_gradients_independent_of_chunk_size():
    inst = make_instance(ModelKind("general"), L=12, dk=2, dv=3, seed=8)
    dO = rand_dO(12, 3, seed=9)
    ref, _ = backward_chunkwise(inst, dO, ChunkPlan(12, 12), MAT)
    for C in (1, 2, 3, 5, 7, 12):
        got, _ = backward_chunkwise(inst, dO, ChunkPlan(12, C), MAT)
        for f in GRAD_FIELDS:
            assert rel_err(getattr(got, f), getattr(ref, f)) <= 1e-9, (C, f)


def test_backward_matches_fd():
    inst = make_instance(ModelKind("general"), L=12, dk=3, dv=2, seed=10)
    dO = rand_dO(12, 2, seed=11)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    for pol in (MAT, REC):
        b, _ = backward_chunkwise(inst, dO, ChunkPlan(12, 5), pol)  # ragged 5+5+2
        for f in GRAD_FIELDS:
            assert rel_err(getattr(b, f), getattr(fd, f)) <= 1e-6, f


def test_backward_agrees_with_parallel_closed_form():
    # two independent closed-form routes to the same gradients
    from glakit import backward_parallel

    inst = make_instance(ModelKind("general"), L=14, dk=3, dv=4, seed=40)
    dO = rand_dO(14, 4, seed=41)
    bp = backward_parallel(inst, dO)
    bc, _ = backward_chunkwise(inst, dO, ChunkPlan(14, 5), REC)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(bp, f), getattr(bc, f)) <= 1e-12, f


def test_multi_panel_backward_matches_fd():
    # chunks of PANEL + 9 rows: two panels each, the second a ragged 9 rows
    L = 2 * PANEL + 30
    inst = make_instance(ModelKind("general"), L=L, dk=2, dv=1, seed=70)
    dO = rand_dO(L, 1, seed=71)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    b, _ = backward_chunkwise(inst, dO, ChunkPlan(L, PANEL + 9), REC)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(b, f), getattr(fd, f)) <= 1e-6, f


def test_heavy_decay_stays_stable():
    # gate_floor 0.05 gives within-chunk exponent ranges ~50; fp64 handles it
    inst = make_instance(ModelKind("general"), L=64, dk=4, dv=4, seed=50,
                         gate_floor=0.05)
    ref = forward_recurrent(inst).O.data
    o, _, _ = forward_chunkwise(inst, ChunkPlan(64, 16), MAT)
    assert rel_err(o.data, ref) <= 1e-9

    small = make_instance(ModelKind("general"), L=10, dk=3, dv=3, seed=51,
                          gate_floor=0.05)
    dO = rand_dO(10, 3, seed=52)
    fd = backward_recurrent_fd(small, dO)
    b, _ = backward_chunkwise(small, dO, ChunkPlan(10, 4), MAT)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(b, f), getattr(fd, f)) <= 1e-6, f


@pytest.mark.parametrize("C", [16, 64])
def test_long_sequence_error_does_not_grow_with_position(C):
    # chunk factors are exps of within-chunk sums, so their rounding is that
    # of one chunk wherever the chunk sits (max 8.6e-15 here); differences of
    # whole-sequence prefix sums, which reach -1569 here, measure 8.7e-14
    L, d = 1024, 8
    inst = make_instance(ModelKind("general"), L, d, d, seed=60, gate_floor=0.05)
    dO = rand_dO(L, d, seed=61)
    want = [forward_recurrent(inst).O.data] + [
        getattr(backward_recurrent_exact(inst, dO), f) for f in GRAD_FIELDS]
    plan = ChunkPlan(L, C)
    for pol in (MAT, REC):
        got = _outputs(forward_chunkwise(inst, plan, pol)[0],
                       backward_chunkwise(inst, dO, plan, pol)[0])
        for name, a, b in zip(("O",) + GRAD_FIELDS, got, want):
            assert rel_err(a, b) <= 2e-14, (pol.mode, name, rel_err(a, b))


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="b_dagger underflows to 0 across a 64-row chunk at gate floor "
                          "1e-12, so K / b_dagger is inf and the output check rejects it")
def test_long_chunk_at_tiny_gate_floor_matches_recurrent():
    inst = make_instance(ModelKind("general"), L=200, dk=3, dv=3, seed=104,
                         gate_floor=1e-12)
    o, _, _ = forward_chunkwise(inst, ChunkPlan(200, 64), MAT)
    assert rel_err(o.data, forward_recurrent(inst).O.data) <= 1e-9


def test_counters_match_predictions_12_config_sweep():
    configs = []
    for L, C in ((5, 5), (8, 3), (8, 4), (16, 1), (16, 7), (12, 4)):
        for pol in (MAT, REC):
            configs.append((L, C, pol))
    assert len(configs) == 12
    for L, C, pol in configs:
        inst = make_instance(ModelKind("general"), L=L, dk=3, dv=2, seed=L + C)
        plan = ChunkPlan(L, C)
        _, _, fwd = forward_chunkwise(inst, plan, pol)
        assert fwd == predict_cost(L, 3, 2, plan, pol, "forward"), (L, C, pol.mode)
        _, bwd = backward_chunkwise(inst, rand_dO(L, 2, seed=C), plan, pol)
        assert bwd == predict_cost(L, 3, 2, plan, pol, "backward"), (L, C, pol.mode)


def test_frozen_forward_flop_count():
    # L=8, C=4, dk=dv=2, materialize: instrumented execution measured 464
    # (within-chunk decays 56 + transforms 48 + intra 208 + inter 32 +
    #  output scale 16 + state updates 104); the closed form must agree.
    # A chunk's decays are its prefix sums (12) and dagger exps (16); gamma
    # is dagger's last row, at no cost.
    # Intra is one 4-row block per chunk: scores 4x2 by 2x4 (48) and
    # scores by values 4x4 by 4x2 (56), twice.
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=12)
    plan = ChunkPlan(8, 4)
    _, _, measured = forward_chunkwise(inst, plan, MAT)
    assert measured.flops == 464
    assert predict_cost(8, 2, 2, plan, MAT).flops == 464


def test_frozen_backward_flop_count():
    # L=8, C=4, dk=dv=2, materialize: instrumented execution measured 1272
    # (decays, formed once per chunk by sweep R 56 + state updates 104 +
    #  transforms and dOt 64 + panels 640 + dq/dk/dv scale-backs 48 + output
    #  scale 16 + chunk 1's inter-chunk terms 108 + chunk 0's state-cotangent
    #  path 112, of which gamma / dagger is 16 and sweep F's add onto it 16,
    #  + gate gradients 124); the closed form must agree.  Each chunk is one
    # 4-row panel: the forward's scores and scores by values (104), the
    # cotangent scores (56), dq (56), dk and dv (2 x 52).
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=12)
    plan = ChunkPlan(8, 4)
    _, measured = backward_chunkwise(inst, rand_dO(8, 2), plan, MAT)
    assert measured.flops == 1272
    assert predict_cost(8, 2, 2, plan, MAT, "backward").flops == 1272


def test_forward_blocks_nest_in_backward_panels():
    # a panel re-forms the forward's own score blocks, so none may straddle two panels
    assert PANEL % BLOCK == 0


def _outputs(o, g):
    return [o.data] + [getattr(g, f) for f in GRAD_FIELDS]


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 80), C=st.integers(1, 40), dk=st.integers(1, 5),
       dv=st.integers(1, 5), seed=st.integers(0, 2**32))
@example(L=2 * BLOCK, C=BLOCK - 5, dk=3, dv=2, seed=1)      # c < BLOCK, ragged last chunk
@example(L=3 * BLOCK, C=BLOCK, dk=2, dv=3, seed=2)          # c == BLOCK
@example(L=2 * BLOCK + 2, C=BLOCK + 1, dk=4, dv=4, seed=3)  # one-row trailing block
@example(L=80, C=2 * BLOCK + 7, dk=5, dv=1, seed=4)         # three blocks, ragged last chunk
@example(L=1, C=1, dk=1, dv=1, seed=5)
@example(L=1, C=40, dk=2, dv=3, seed=6)
@example(L=57, C=40, dk=1, dv=1, seed=7)
@example(L=41, C=40, dk=2, dv=3, seed=8)                    # one-row last chunk
@example(L=2, C=1, dk=3, dv=2, seed=9)                      # two one-row chunks
@example(L=2 * PANEL + 30, C=PANEL + 9, dk=3, dv=2, seed=10)  # two panels, ragged last chunk
@example(L=2 * PANEL + 43, C=2 * PANEL + 3, dk=2, dv=3, seed=11)  # three panels, ragged
def test_row_blocks_match_recurrent_policies_and_counters(L, C, dk, dv, seed):
    inst = make_instance(ModelKind("general"), L, dk, dv, seed=seed)
    plan = ChunkPlan(L, C)
    dO = rand_dO(L, dv, seed=seed + 1)
    want = [forward_recurrent(inst).O.data] + [
        getattr(backward_recurrent_exact(inst, dO), f) for f in GRAD_FIELDS]
    runs = []
    for pol in (MAT, REC):
        o, _, fwd = forward_chunkwise(inst, plan, pol)
        g, bwd = backward_chunkwise(inst, dO, plan, pol)
        assert fwd == predict_cost(L, dk, dv, plan, pol, "forward")
        assert bwd == predict_cost(L, dk, dv, plan, pol, "backward")
        runs.append(_outputs(o, g))
        for name, got, ref in zip(("O",) + GRAD_FIELDS, runs[-1], want):
            if L == 1 and name.startswith("dlog"):
                # analytically zero; q (.) dq - k (.) dk cancels to a few ulps
                # of its O(1) terms, which rel_err's 1e-8 floor would inflate
                assert np.max(np.abs(got)) <= 1e-14 and not ref.any(), (pol.mode, name)
            else:
                assert rel_err(got, ref) <= 1e-9, (pol.mode, name)
    for name, a, b in zip(("O",) + GRAD_FIELDS, *runs):
        assert np.array_equal(a, b), name


def test_repeated_calls_are_byte_identical():
    # 64 x 64 BLAS products may run threaded; a repeat must still match the
    # first call byte for byte, so timed repeats can be checked bitwise
    L, d = 256, 64
    inst = make_instance(ModelKind("general"), L, d, d, seed=17)
    plan = ChunkPlan(L, 64)
    dO = rand_dO(L, d, seed=18)
    for pol in (MAT, REC):
        first, again = (_outputs(forward_chunkwise(inst, plan, pol)[0],
                                 backward_chunkwise(inst, dO, plan, pol)[0])
                        for _ in range(2))
        for name, a, b in zip(("O",) + GRAD_FIELDS, first, again):
            assert a.tobytes() == b.tobytes(), (pol.mode, name)


def _nan_filled(make):
    """np.empty or np.empty_like, with every float array it returns filled with NaN."""
    def filled(*args, **kwargs):
        out = make(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out
    return filled


def test_passes_read_no_unwritten_memory(monkeypatch):
    # np.empty often hands back zeroed memory, so a pass that reads rows it
    # never wrote (adds onto them, say) can still give the right bytes.
    # Filled with NaN, such a read shows: each pass must give the bytes,
    # states and counters of a run on numpy's own np.empty.  The configs:
    # L=1, C > L, a ragged last chunk, a forward of several chunk groups,
    # and a backward of two-panel chunks.
    configs = [(1, 3, 2, 1), (5, 3, 2, 9), (11, 3, 2, 4), (4096, 8, 8, 64),
               (2 * PANEL + 30, 2, 1, PANEL + 9)]
    assert chunkwise._group_size(4096, 8, 8, 64) < 4096 // 64
    for L, dk, dv, C in configs:
        inst = make_instance(ModelKind("general"), L, dk, dv, seed=L)
        plan, dO = ChunkPlan(L, C), rand_dO(L, dv)
        for pol in (MAT, REC):
            runs = []
            for nan in (False, True):
                with monkeypatch.context() as m:
                    if nan:
                        m.setattr(np, "empty", _nan_filled(np.empty))
                        m.setattr(np, "empty_like", _nan_filled(np.empty_like))
                    O, states, fcost = forward_chunkwise(inst, plan, pol)
                    grads, bcost = backward_chunkwise(inst, dO, plan, pol)
                runs.append(([O.data.tobytes()]
                             + [S.tobytes() for S in (() if states is None else states)]
                             + [getattr(grads, f).tobytes() for f in GRAD_FIELDS],
                             fcost, bcost))
            assert runs[0] == runs[1], (L, C, pol.mode)


def _chunk_size(L, shape, r):
    """C of the given shape: one-row chunks, a ragged last chunk (L >= 3), or one chunk."""
    if shape == "ragged" and L >= 3:
        ragged = [C for C in range(2, L) if L % C]
        return ragged[r % len(ragged)]
    return L + r % 8 if shape == "whole" else 1


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       L=st.integers(1, 40), dk=st.integers(1, 4), dv=st.integers(1, 4), B=st.integers(1, 4),
       shape=st.sampled_from(["1", "ragged", "whole"]), r=st.integers(0, 99),
       floor=st.sampled_from([0.5, 0.05, 1e-3, 1e-12, 1e-300]), seed=st.integers(0, 2**32))
@example(kind="general", L=37, dk=3, dv=2, B=3, shape="ragged", r=5, floor=0.5, seed=1)
@example(kind="general", L=24, dk=2, dv=2, B=2, shape="whole", r=0, floor=1e-300, seed=9)
def test_batched_raw_forward_matches_each_elements_own_run(kind, L, dk, dv, B, shape, r,
                                                          floor, seed):
    # the causality check stacks a group of trials and runs the raw kernel
    # once: every batch element gets the bytes of its own public call (O and
    # each chunk state), or is non-finite where that call raises, and a
    # batch of B counts B x predict_cost
    insts = [make_instance(ModelKind(kind), L, dk, dv, seed=seed + b, gate_floor=floor)
             for b in range(B)]
    stacked = [np.stack(a) for a in zip(*(inst.arrays for inst in insts))]
    plan = ChunkPlan(L, _chunk_size(L, shape, r))
    for pol in (MAT, REC):
        with np.errstate(all="ignore"):
            O, states, flops = chunkwise._forward_raw(*stacked, plan, pol.materialize)
        assert flops == B * predict_cost(L, dk, dv, plan, pol).flops
        assert (states is None) == (pol is REC)
        for b, inst in enumerate(insts):
            try:
                want, want_states, _ = forward_chunkwise(inst, plan, pol)
            except ValueError:
                assert not np.isfinite(O[b]).all()
                continue
            assert O[b].tobytes() == want.data.tobytes()
            if states is not None:
                assert [S.tobytes() for S in states[b]] == [S.tobytes() for S in want_states]


def _forward_in_groups_of(G, arrays, plan, materialize):
    """_forward_raw with G chunks per group (None: the module's own rule)."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        if G is not None:  # a budget of exactly G chunks of the plan's length
            dk, dv = arrays[0].shape[-1], arrays[2].shape[-1]
            budget = G * 8 * plan.boundaries[0][1] * (dk + dv)
            mp.setattr(chunkwise, "_GROUP_MIN_BYTES", budget)
            mp.setattr(chunkwise, "_GROUP_MAX_BYTES", budget)
        return chunkwise._forward_raw(*arrays, plan, materialize)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       L=st.integers(1, 40), dk=st.integers(1, 4), dv=st.integers(1, 4), B=st.integers(0, 3),
       shape=st.sampled_from(["1", "ragged", "whole"]), r=st.integers(0, 99),
       floor=st.sampled_from([0.5, 0.05, 1e-3, 1e-12, 1e-300]),
       G=st.sampled_from([None, 2, 3]), seed=st.integers(0, 2**32))
@example(kind="general", L=37, dk=3, dv=2, B=0, shape="ragged", r=5, floor=0.5, G=None, seed=1)
@example(kind="general", L=37, dk=3, dv=2, B=2, shape="ragged", r=5, floor=0.5, G=3, seed=2)
@example(kind="general", L=1, dk=1, dv=1, B=0, shape="1", r=0, floor=0.5, G=None, seed=3)
@example(kind="retnet", L=9, dk=2, dv=3, B=0, shape="whole", r=3, floor=0.5, G=None, seed=4)
@example(kind="general", L=20, dk=1, dv=1, B=3, shape="1", r=0, floor=1e-300, G=2, seed=5)
def test_grouped_forward_matches_per_chunk_forward(kind, L, dk, dv, B, shape, r, floor, G,
                                                   seed):
    # a group runs each step once over its chunks' rows, and only the carry
    # loops over its chunks; one chunk per group is the per-chunk forward.
    # Both must give the same bytes (O and each chunk state, non-finite
    # values included) and the same flops, B x predict_cost (B = 0: one
    # unbatched instance)
    insts = [make_instance(ModelKind(kind), L, dk, dv, seed=seed + b, gate_floor=floor)
             for b in range(max(B, 1))]
    arrays = insts[0].arrays if B == 0 else [np.stack(a) for a in zip(*(i.arrays for i in insts))]
    plan = ChunkPlan(L, _chunk_size(L, shape, r))
    for pol in (MAT, REC):
        O, states, flops = _forward_in_groups_of(G, arrays, plan, pol.materialize)
        want_O, want_states, want_flops = _forward_in_groups_of(1, arrays, plan, pol.materialize)
        assert flops == want_flops == max(B, 1) * predict_cost(L, dk, dv, plan, pol).flops
        assert O.tobytes() == want_O.tobytes()
        if pol is REC:
            assert states is want_states is None
        else:
            assert [S.tobytes() for S in states] == [S.tobytes() for S in want_states]


def test_group_size_rule():
    # chunks per group from per-instance bytes: four at the anchor shape,
    # at most two where the forward's peak test sits (L=1024, d=16, C=64),
    # and the whole sequence at the small shapes the checks run at
    def groups(L, dk, dv, C):
        c = min(C, L)
        return list(chunkwise._groups(L, c, chunkwise._group_size(L, dk, dv, c)))

    assert chunkwise._group_size(4096, 64, 64, 64) == 4
    assert groups(4096, 64, 64, 64)[:2] == [(0, 4, 0, 64), (4, 8, 256, 64)]
    assert chunkwise._group_size(1024, 16, 16, 64) <= 2
    assert chunkwise._group_size(64, 128, 128, 4) == 4  # the mid-group non-finite case
    # the oracle and anchor benchmark shapes' verify runs, and a ragged plan,
    # whose equal-length chunks make one group
    for L, d, C in ((16, 8, 8), (16, 4, 4), (16, 8, 5)):
        whole = [(0, L // C, 0, C)] + ([(L // C, L // C + 1, L // C * C, L % C)] if L % C else [])
        assert groups(L, d, d, C) == whole
    # a ragged last chunk is a group of one; so is a chunk longer than L
    assert groups(11, 3, 2, 4) == [(0, 2, 0, 4), (2, 3, 8, 3)]
    assert groups(5, 3, 2, 9) == [(0, 1, 0, 5)]


def _backward_in_groups_of(G, inst, dO, plan, pol):
    """backward_chunkwise with G chunks per group (None: the module's own rule).

    Returns the five gradients' bytes and the CostReport, or the message it raised.
    """
    with pytest.MonkeyPatch.context() as mp:
        if G is not None:
            mp.setattr(chunkwise, "_backward_group_size", lambda L, dk, dv, c: G)
        try:
            grads, cost = backward_chunkwise(inst, dO, plan, pol)
        except ValueError as exc:
            return str(exc)
    return [getattr(grads, f).tobytes() for f in GRAD_FIELDS], cost


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       L=st.integers(1, 40), dk=st.integers(1, 4), dv=st.integers(1, 4),
       shape=st.sampled_from(["1", "ragged", "whole"]), r=st.integers(0, 99),
       floor=st.sampled_from([0.5, 1e-3]), G=st.sampled_from([None, 2, 3]),
       seed=st.integers(0, 2**32))
@example(kind="general", L=1, dk=2, dv=1, shape="1", r=0, floor=0.5, G=2, seed=1)  # L=1
@example(kind="general", L=9, dk=2, dv=3, shape="whole", r=3, floor=0.5, G=2, seed=2)  # C>L
@example(kind="vanilla", L=20, dk=1, dv=2, shape="1", r=0, floor=0.5, G=3, seed=3)  # C=1
@example(kind="retnet", L=37, dk=3, dv=2, shape="ragged", r=5, floor=1e-3, G=3,
         seed=4)                                                       # ragged last chunk
@example(kind="gla_beta_one", L=9, dk=3, dv=1, shape="1", r=0, floor=1e-3, G=3,
         seed=5)                                 # the last group: three chunks, the last one
def test_grouped_backward_matches_per_chunk_backward(kind, L, dk, dv, shape, r, floor, G,
                                                     seed):
    # a group runs each step of both sweeps once over its chunks' rows, and
    # only the two dk x dv scans loop over its chunks; one chunk per group
    # is the per-chunk backward.  Both must give the same five gradients
    # byte for byte (or raise the same message) and the same CostReport,
    # which is predict_cost's
    inst = make_instance(ModelKind(kind), L, dk, dv, seed=seed, gate_floor=floor)
    plan = ChunkPlan(L, _chunk_size(L, shape, r))
    dO = rand_dO(L, dv, seed=seed + 1)
    for pol in (MAT, REC):
        got = _backward_in_groups_of(G, inst, dO, plan, pol)
        assert got == _backward_in_groups_of(1, inst, dO, plan, pol), pol.mode
        if not isinstance(got, str):
            assert got[1] == predict_cost(L, dk, dv, plan, pol, "backward")


def test_backward_group_size_rule():
    # the backward's own rule, sized on its scratch: four chunks at the
    # anchor shape and at L=4096, dk=dv=8, C=64; one at the oracle shape and
    # where the backward's peak test sits (L=1024, d=16, C=64), where groups
    # of two would take the peak past its bound
    assert chunkwise._backward_group_size(4096, 64, 64, 64) == 4
    assert chunkwise._backward_group_size(4096, 8, 8, 64) == 4
    assert chunkwise._backward_group_size(16, 8, 8, 8) == 1
    assert chunkwise._backward_group_size(1024, 16, 16, 64) == 1


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 70), C=st.integers(1, 40), dk=st.integers(1, 4),
       dv=st.integers(1, 4), seed=st.integers(0, 2**32),
       kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       floor=st.sampled_from([0.5, 0.05]))
@example(L=1, C=1, dk=2, dv=3, seed=1, kind="general", floor=0.5)       # L=1
@example(L=9, C=1, dk=2, dv=2, seed=2, kind="general", floor=0.5)       # C=1
@example(L=9, C=9, dk=3, dv=2, seed=3, kind="general", floor=0.05)      # C == L
@example(L=9, C=40, dk=2, dv=3, seed=4, kind="gla_beta_one", floor=0.5)  # C > L
@example(L=20, C=6, dk=1, dv=1, seed=5, kind="general", floor=0.5)      # dk=dv=1
@example(L=2 * BLOCK + 3, C=BLOCK + 1, dk=3, dv=4, seed=6, kind="general",
         floor=0.5)                                                      # ragged last chunk
@example(L=2 * PANEL + 30, C=PANEL + 9, dk=3, dv=2, seed=7, kind="general",
         floor=0.5)                                                      # two panels, ragged
@example(L=2 * PANEL + 43, C=2 * PANEL + 3, dk=2, dv=3, seed=8, kind="general",
         floor=0.05)                                                     # three panels, ragged
def test_gate_gradients_equal_whole_array_suffix_sums_bitwise(L, C, dk, dv, seed,
                                                              kind, floor):
    # the backward forms the identities a chunk of rows at a time in place
    # and sums them in place once sweep R is done; they must be the
    # whole-array suffix sums of fresh identities bit for bit, with O from
    # the forward (the backward never replays it)
    inst = make_instance(ModelKind(kind), L, dk, dv, seed=seed, gate_floor=floor)
    plan = ChunkPlan(L, C)
    dO = rand_dO(L, dv, seed=seed + 1)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    for pol in (MAT, REC):
        O = forward_chunkwise(inst, plan, pol)[0].data
        g, _ = backward_chunkwise(inst, dO, plan, pol)
        want_a = suffix_sum_arr(Q * g.dQ - K * g.dK)
        want_b = suffix_sum_arr(O * dO.data - V * g.dV)
        assert g.dlog_alpha.tobytes() == want_a.tobytes(), pol.mode
        assert g.dlog_beta.tobytes() == want_b.tobytes(), pol.mode


def _traced_peak(fn):
    """The tracemalloc peak of a second fn() call, with any line tracer suspended.

    A Python-level tracer (coverage, a line recorder) runs on every line
    of the library and may allocate as it goes; tracemalloc would book
    that to fn.  The first call fills the mask cache outside the trace.
    """
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        sys.settrace(tracer)


@pytest.mark.parametrize("pol", [MAT, REC], ids=lambda p: p.mode)
def test_backward_allocates_no_full_length_temporaries(pol):
    # full-length arrays: the five gradients (5 L*d); chunk-local
    # temporaries fill the rest.  A backward that replays the forward and
    # forms its gate identities as full-length temporaries (Q * dQ - K * dK)
    # traces 13+.
    L, d = 1024, 16
    inst = make_instance(ModelKind("general"), L, d, d, seed=20)
    plan = ChunkPlan(L, 64)
    dO = rand_dO(L, d, seed=21)
    peak = _traced_peak(lambda: backward_chunkwise(inst, dO, plan, pol))
    assert peak <= 11.5 * L * d * 8, peak / (L * d * 8)


@pytest.mark.parametrize("pol", [MAT, REC], ids=lambda p: p.mode)
def test_passes_hold_no_decay_table(pol):
    # each pass forms a chunk's decay factors when it reaches the chunk, so
    # neither holds 4 L*d of them: the forward holds O (and the states), the
    # backward the five gradients plus group-local scratch.  The backward's
    # sweep R parks each chunk's daggers in the chunk's rows of dQ and
    # dlog_beta, where sweep F reads them.  dlog_alpha is allocated only
    # after both sweeps, once their group temporaries are dropped, so the
    # backward's peak is sweep F's (~5.1 at L=1024, d=16, whose groups are
    # one chunk).  At L=4096, d=8 the forward and the backward group four
    # chunks or more, and the same bounds hold.
    for L, d in ((1024, 16), (4096, 8)):
        inst = make_instance(ModelKind("general"), L, d, d, seed=20)
        plan = ChunkPlan(L, 64)
        dO = rand_dO(L, d, seed=21)
        fwd = _traced_peak(lambda: forward_chunkwise(inst, plan, pol))
        bwd = _traced_peak(lambda: backward_chunkwise(inst, dO, plan, pol))
        assert fwd <= 2.5 * L * d * 8, (L, d, fwd / (L * d * 8))
        assert bwd <= 5.6 * L * d * 8, (L, d, bwd / (L * d * 8))


@pytest.mark.parametrize("pol", [MAT, REC], ids=lambda p: p.mode)
@pytest.mark.parametrize("L, C", [(1, 1), (8, 8), (11, 4), (5, 9), (70, 2)],
                         ids=["L=1", "one_chunk", "ragged", "C>L", "groups"])
def test_backward_forms_each_chunks_factors_once(monkeypatch, pol, L, C):
    # each pass forms each chunk's factors once, a group of chunks at a
    # time, and the groups tile the plan's chunks: the forward's in order,
    # and the backward's sweep R's last group first; sweep F forms none, it
    # reads the factors sweep R parked.  At L=70, C=2 a backward group holds
    # two chunks.
    inst = make_instance(ModelKind("general"), L, 3, 2, seed=30)
    plan = ChunkPlan(L, C)
    la = inst.gates.log_alpha
    formed = []

    def counted(la_rows, lb_rows, *args):
        # the group is where its log-alpha rows sit in the instance's array
        assert np.shares_memory(la_rows, la)
        offset = la_rows.__array_interface__["data"][0] - la.__array_interface__["data"][0]
        s = offset // la.strides[0]
        formed.append((s, s + la_rows.size // la_rows.shape[-1]))
        return chunk_factors(la_rows, lb_rows, *args)

    monkeypatch.setattr(chunkwise, "chunk_factors", counted)
    forward_chunkwise(inst, plan, pol)
    starts, ends = [s for s, _ in plan.boundaries], [e for _, e in plan.boundaries]
    assert [s for s, _ in formed] == [0] + [e for _, e in formed[:-1]]
    assert {s for s, _ in formed} <= set(starts) and {e for _, e in formed} <= set(ends)
    assert formed[-1][1] == L
    formed.clear()
    backward_chunkwise(inst, rand_dO(L, 2), plan, pol)
    assert [e for _, e in formed] == [L] + [s for s, _ in formed[:-1]]
    assert {s for s, _ in formed} <= set(starts) and {e for _, e in formed} <= set(ends)
    assert formed[-1][0] == 0
    if (L, C) == (70, 2):
        assert len(formed) < plan.num_chunks


def test_backward_scratch_at_one_long_chunk():
    # a panel's score arrays are PANEL x c where 16-row blocks' were 16 x c.
    # At c = L = 1024, d = 16 the chunk scratch comes to ~19 L*d*8 bytes and
    # one live PANEL x c array adds 4 more; keeping W and G alive together
    # would add 8, and whole c x c score squares 64.
    L, d = 1024, 16
    inst = make_instance(ModelKind("general"), L, d, d, seed=20)
    dO = rand_dO(L, d, seed=21)
    peak = _traced_peak(lambda: backward_chunkwise(inst, dO, ChunkPlan(L, L), REC))
    assert peak <= 24 * L * d * 8, peak / (L * d * 8)


@pytest.mark.parametrize("C", [4, 64])
def test_backward_peak_does_not_depend_on_policy(C):
    # the backward keeps no record of the chunk states under either policy;
    # at C=4 a record of all 256 states would add ~3.2 L*d*8 bytes
    L, d = 1024, 16
    inst = make_instance(ModelKind("general"), L, d, d, seed=20)
    plan = ChunkPlan(L, C)
    dO = rand_dO(L, d, seed=21)
    peaks = {pol.mode: _traced_peak(lambda: backward_chunkwise(inst, dO, plan, pol))
             for pol in (MAT, REC)}
    assert peaks["materialize"] == peaks["recompute"], peaks


@settings(max_examples=40, deadline=None)
@given(L=st.integers(PANEL - 1, 2 * PANEL + 9), d=st.integers(1, 8),
       C=st.sampled_from([PANEL - 1, PANEL, PANEL + 9]),
       floor=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]), seed=st.integers(0, 2**32))
def test_panel_masked_scores_stay_silent(L, d, C, floor, seed):
    # a panel's cotangent scores pair rows up to PANEL - 1 apart, where a
    # 16-row block's paired rows up to 15 apart, so a masked entry overflows
    # sooner (see the next test).  Both passes run under their own
    # np.errstate(all="ignore"), so neither warns.  Whenever the forward
    # returns, the backward must either match the recurrent gradients or
    # name the chunk it failed in.  Warnings are errors here (pyproject's
    # filterwarnings), so a warning that escaped either errstate would fail.
    inst = make_instance(ModelKind("general"), L, d, d, seed=seed, gate_floor=floor)
    plan = ChunkPlan(L, C)
    dO = rand_dO(L, d, seed=seed + 1)  # |dO| <= 1
    try:
        forward_chunkwise(inst, plan, MAT)
    except ValueError:
        return  # past the forward's range; see the strict xfail above
    want = backward_recurrent_exact(inst, dO)
    for pol in (MAT, REC):
        try:
            g, _ = backward_chunkwise(inst, dO, plan, pol)
        except ValueError as exc:
            assert str(exc).startswith("non-finite values from chunk "), str(exc)
            continue
        for f in GRAD_FIELDS:
            assert rel_err(getattr(g, f), getattr(want, f)) <= 1e-9, (pol.mode, f)


def test_overflowing_masked_score_is_dropped_silently():
    # value gates of 1 on row 0, then a whole-chunk log-decay of -708:
    # Vt[63] = V[63] / Ddag[63] is ~2.9e307 per entry, finite, and so is the
    # forward.  Row 0's masked cotangent score against row 63 sums 8 such
    # terms of one sign and overflows; the causal zeroing must drop it, and
    # backward_chunkwise's np.errstate(all="ignore") must keep the overflow
    # from warning (a warning is an error here, by pyproject's filterwarnings).
    L, d = PANEL, 8
    dO = rand_dO(L, d, seed=81).data.copy()
    dO[0] = 1.0
    rng = SplitMix64(82)
    Q, K, V = (rng.fill_pm1(L, d) for _ in range(3))
    V[-1] = 0.95
    lb = np.full((L, d), -708.0 / (L - 1))
    lb[0] = 0.0
    inst = GlaInstance(SeqTensor(Q), SeqTensor(K), SeqTensor(V),
                       GateSeq(np.full((L, d), -0.01), lb))
    dO = SeqTensor(dO)
    plan = ChunkPlan(L, PANEL)
    forward_chunkwise(inst, plan, MAT)  # no warning: the forward is in range
    want = backward_recurrent_exact(inst, dO)
    for pol in (MAT, REC):
        g, _ = backward_chunkwise(inst, dO, plan, pol)
        for f in GRAD_FIELDS:
            assert rel_err(getattr(g, f), getattr(want, f)) <= 1e-9, (pol.mode, f)


@pytest.mark.parametrize("log_decay", [500.0, 700.0])
def test_state_rows_scaled_before_their_product_at_large_chunk_decay(log_decay):
    # each side's whole-chunk log-decay is -log_decay: Kt and Vt reach
    # ~e^log_decay, finite, but Kt^T Vt would reach ~e^(2 log_decay) and
    # overflow.  The state update scales each side by its gamma before the
    # product, and the reverse sweep scales K and V by gamma / dagger, so
    # both passes stay finite and match the recurrent judges.
    L, C, dk, dv = 128, 64, 3, 2
    rng = SplitMix64(90)
    Q, K, V = rng.fill_pm1(L, dk), rng.fill_pm1(L, dk), rng.fill_pm1(L, dv)
    gates = GateSeq(np.full((L, dk), -log_decay / C), np.full((L, dv), -log_decay / C))
    inst = GlaInstance(SeqTensor(Q), SeqTensor(K), SeqTensor(V), gates)
    dO = rand_dO(L, dv, seed=91)
    plan = ChunkPlan(L, C)
    want_o = forward_recurrent(inst).O.data
    want = backward_recurrent_exact(inst, dO)
    for pol in (MAT, REC):
        o, _, _ = forward_chunkwise(inst, plan, pol)
        assert rel_err(o.data, want_o) <= 1e-9, pol.mode
        g, _ = backward_chunkwise(inst, dO, plan, pol)
        for f in GRAD_FIELDS:
            assert rel_err(getattr(g, f), getattr(want, f)) <= 1e-6, (pol.mode, f)


@pytest.mark.parametrize("L, C, dk, seed, floor, chunk", [
    (200, 64, 3, 104, 1e-12, 0),  # the strict xfail's instance
    (24, 2, 2, 4, 1e-300, 1),     # chunk 0 stays finite
    (64, 4, 128, 1, 1e-82, 6),    # the third chunk of the second group of four
])
def test_non_finite_output_names_its_chunk(L, C, dk, seed, floor, chunk):
    inst = make_instance(ModelKind("general"), L, dk, dk, seed=seed, gate_floor=floor)
    plan = ChunkPlan(L, C)
    dO = rand_dO(L, dk, seed=seed + 1)
    s, e = plan.boundaries[chunk]
    la, lb = inst.gates.log_alpha, inst.gates.log_beta
    for s0, e0 in plan.boundaries[:chunk]:  # earlier chunks stay above the bound
        assert min(la[s0:e0].sum(axis=0).min(), lb[s0:e0].sum(axis=0).min()) > -709.78
    runs = [lambda p=p: forward_chunkwise(inst, plan, p) for p in (MAT, REC)]
    runs += [lambda p=p: backward_chunkwise(inst, dO, plan, p) for p in (MAT, REC)]
    for run in runs:
        with pytest.raises(ValueError) as exc:
            run()
        m = re.fullmatch(
            rf"non-finite values from chunk {chunk} \(rows {s}\.\.{e - 1}\): its "
            r"whole-chunk log-decay reaches (\S+) on the key side and (\S+) on the "
            r"value side, against -ln\(DBL_MAX\) = -709\.78, below which 1/decay "
            r"overflows", str(exc.value))
        assert m, str(exc.value)
        key, value = float(m[1]), float(m[2])
        assert key == pytest.approx(la[s:e].sum(axis=0).min(), abs=0.005)
        assert value == pytest.approx(lb[s:e].sum(axis=0).min(), abs=0.005)
        assert min(key, value) < -709.78


def test_state_write_counts():
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=13)
    for C, writes in ((8, 1), (2, 4)):
        _, states, c = forward_chunkwise(inst, ChunkPlan(8, C), MAT)
        assert (c.state_writes, c.state_reads, c.recompute_passes) == (writes, 0, 0)
        assert len(states) == c.state_writes
    _, states, c = forward_chunkwise(inst, ChunkPlan(8, 2), REC)
    assert (c.state_writes, c.state_reads, c.recompute_passes) == (0, 0, 0)
    assert states is None


def test_vanilla_reduction_direct_oracle():
    inst = make_instance(ModelKind("vanilla"), L=13, dk=3, dv=2, seed=14)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    ref = np.zeros((13, 2))
    for t in range(13):
        for i in range(t + 1):
            ref[t] += float(Q[t] @ K[i]) * V[i]
    o, _, _ = forward_chunkwise(inst, ChunkPlan(13, 4), MAT)
    assert rel_err(o.data, ref) <= 1e-12


def test_retnet_reduction_direct_oracle():
    gamma = 0.9
    inst = make_instance(ModelKind("retnet", gamma), L=13, dk=3, dv=2, seed=15)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    ref = np.zeros((13, 2))
    for t in range(13):
        for i in range(t + 1):
            ref[t] += gamma ** (t - i) * float(Q[t] @ K[i]) * V[i]
    o, _, _ = forward_chunkwise(inst, ChunkPlan(13, 4), MAT)
    assert rel_err(o.data, ref) <= 1e-10


def test_plan_mismatch_rejected():
    # the kernels and predict_cost run one check, so they say the same thing
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=16)
    with pytest.raises(ValueError, match="plan covers L=9 but the sequence has L=8"):
        forward_chunkwise(inst, ChunkPlan(9, 3), MAT)
    with pytest.raises(ValueError, match="plan covers L=7 but the sequence has L=8"):
        backward_chunkwise(inst, rand_dO(8, 2), ChunkPlan(7, 3), REC)
    with pytest.raises(ValueError, match="plan covers L=9 but the sequence has L=8"):
        predict_cost(8, 2, 2, ChunkPlan(9, 3), MAT)


def test_bad_policy_and_pass_rejected():
    with pytest.raises(ValueError):
        ChunkPolicy("cache")
    with pytest.raises(ValueError):
        predict_cost(8, 2, 2, ChunkPlan(8, 4), MAT, "sideways")


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("name", ["L", "dk", "dv"])
def test_cost_models_name_a_bad_size(name, size):
    # make_instance's size rule, so no cost model books flops for a width
    # below 1 (predict_cost's L is its plan's, which is at least 1)
    sizes = dict(L=3, dk=2, dv=2) | {name: size}
    match = f"^{name} must be >= 1, got {size}$"
    for cost in (recurrent_forward_cost, parallel_forward_cost):
        with pytest.raises(ValueError, match=match):
            cost(**sizes)
    if name != "L":
        for pass_ in ("forward", "backward"):
            with pytest.raises(ValueError, match=match):
                predict_cost(**sizes, plan=ChunkPlan(3, 2), policy=MAT, pass_=pass_)
