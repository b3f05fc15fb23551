"""Chunkwise form: equivalence across C, policies, counters, reductions."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glakit import (ChunkPlan, ChunkPolicy, GateSeq, GlaInstance, ModelKind,
                    SeqTensor, SplitMix64, backward_chunkwise, backward_recurrent_exact,
                    backward_recurrent_fd, forward_chunkwise, forward_parallel,
                    forward_recurrent, make_instance, predict_cost, rel_err)
from glakit.chunkwise import BLOCK, PANEL
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
            assert np.max(np.abs(getattr(b, f).data)) == 0.0


def test_policy_gradients_identical_and_counters():
    inst = make_instance(ModelKind("general"), L=16, dk=3, dv=3, seed=7)
    plan = ChunkPlan(16, 4)
    dO = rand_dO(16, 3)
    bm, cm = backward_chunkwise(inst, dO, plan, MAT)
    br, cr = backward_chunkwise(inst, dO, plan, REC)
    for f in GRAD_FIELDS:
        assert np.array_equal(getattr(bm, f).data, getattr(br, f).data), f
    assert cr.state_writes == 0 and cr.state_reads == 0
    assert cr.recompute_passes == plan.num_chunks
    assert cm.state_writes == plan.num_chunks
    assert cm.recompute_passes == 0


def test_gradients_independent_of_chunk_size():
    inst = make_instance(ModelKind("general"), L=12, dk=2, dv=3, seed=8)
    dO = rand_dO(12, 3, seed=9)
    ref, _ = backward_chunkwise(inst, dO, ChunkPlan(12, 12), MAT)
    for C in (1, 2, 3, 5, 7, 12):
        got, _ = backward_chunkwise(inst, dO, ChunkPlan(12, C), MAT)
        for f in GRAD_FIELDS:
            assert rel_err(getattr(got, f).data, getattr(ref, f).data) <= 1e-9, (C, f)


def test_backward_matches_fd():
    inst = make_instance(ModelKind("general"), L=12, dk=3, dv=2, seed=10)
    dO = rand_dO(12, 2, seed=11)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    for pol in (MAT, REC):
        b, _ = backward_chunkwise(inst, dO, ChunkPlan(12, 5), pol)  # ragged 5+5+2
        for f in GRAD_FIELDS:
            assert rel_err(getattr(b, f).data, getattr(fd, f).data) <= 1e-6, f


def test_backward_agrees_with_parallel_closed_form():
    # two independent closed-form routes to the same gradients
    from glakit import backward_parallel

    inst = make_instance(ModelKind("general"), L=14, dk=3, dv=4, seed=40)
    dO = rand_dO(14, 4, seed=41)
    bp = backward_parallel(inst, dO)
    bc, _ = backward_chunkwise(inst, dO, ChunkPlan(14, 5), REC)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(bp, f).data, getattr(bc, f).data) <= 1e-12, f


def test_multi_panel_backward_matches_fd():
    # chunks of PANEL + 9 rows: two panels each, the second a ragged 9 rows
    L = 2 * PANEL + 30
    inst = make_instance(ModelKind("general"), L=L, dk=2, dv=1, seed=70)
    dO = rand_dO(L, 1, seed=71)
    fd = backward_recurrent_fd(inst, dO, eps=1e-5)
    b, _ = backward_chunkwise(inst, dO, ChunkPlan(L, PANEL + 9), REC)
    for f in GRAD_FIELDS:
        assert rel_err(getattr(b, f).data, getattr(fd, f).data) <= 1e-6, f


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
        assert rel_err(getattr(b, f).data, getattr(fd, f).data) <= 1e-6, f


@pytest.mark.parametrize("C", [16, 64])
def test_long_sequence_error_does_not_grow_with_position(C):
    # chunk factors are exps of within-chunk sums, so their rounding is that
    # of one chunk wherever the chunk sits (max 8.6e-15 here); differences of
    # whole-sequence prefix sums, which reach -1569 here, measure 8.7e-14
    L, d = 1024, 8
    inst = make_instance(ModelKind("general"), L, d, d, seed=60, gate_floor=0.05)
    dO = rand_dO(L, d, seed=61)
    want = [forward_recurrent(inst).O.data] + [
        getattr(backward_recurrent_exact(inst, dO), f).data for f in GRAD_FIELDS]
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
    # L=8, C=4, dk=dv=2, materialize: instrumented execution measured 528
    # (within-chunk decays 120 + transforms 48 + intra 208 + inter 32 +
    #  output scale 16 + state updates 104); the closed form must agree.
    # Intra is one 4-row block per chunk: scores 4x2 by 2x4 (48) and
    # scores by values 4x4 by 4x2 (56), twice.
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=12)
    plan = ChunkPlan(8, 4)
    _, _, measured = forward_chunkwise(inst, plan, MAT)
    assert measured.flops == 528
    assert predict_cost(8, 2, 2, plan, MAT).flops == 528


def test_frozen_backward_flop_count():
    # L=8, C=4, dk=dv=2, materialize: instrumented execution measured 1380
    # (decays, formed three times 180 + state updates 104 + transforms and
    #  dOt 64 + panels 640 + dq/dk/dv scale-backs 48 + output scale 16 +
    #  chunk 1's inter-chunk terms 108 + chunk 0's state-cotangent path 96 +
    #  gate gradients 124); the closed form must agree.  Each chunk is one
    # 4-row panel: the forward's scores and scores by values (104), the
    # cotangent scores (56), dq (56), dk and dv (2 x 52).
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=12)
    plan = ChunkPlan(8, 4)
    _, measured = backward_chunkwise(inst, rand_dO(8, 2), plan, MAT)
    assert measured.flops == 1380
    assert predict_cost(8, 2, 2, plan, MAT, "backward").flops == 1380


def test_forward_blocks_nest_in_backward_panels():
    # a panel re-forms the forward's own score blocks, so none may straddle two panels
    assert PANEL % BLOCK == 0


def _outputs(o, g):
    return [o.data] + [getattr(g, f).data for f in GRAD_FIELDS]


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
        getattr(backward_recurrent_exact(inst, dO), f).data for f in GRAD_FIELDS]
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
    # the backward assembles each chunk's suffix sums continued from the
    # next chunk; they must be the whole-array identities bit for bit, with
    # O from the forward (the backward never replays it)
    inst = make_instance(ModelKind(kind), L, dk, dv, seed=seed, gate_floor=floor)
    plan = ChunkPlan(L, C)
    dO = rand_dO(L, dv, seed=seed + 1)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    for pol in (MAT, REC):
        O = forward_chunkwise(inst, plan, pol)[0].data
        g, _ = backward_chunkwise(inst, dO, plan, pol)
        want_a = suffix_sum_arr(Q * g.dQ.data - K * g.dK.data)
        want_b = suffix_sum_arr(O * dO.data - V * g.dV.data)
        assert g.dlog_alpha.data.tobytes() == want_a.tobytes(), pol.mode
        assert g.dlog_beta.data.tobytes() == want_b.tobytes(), pol.mode


@pytest.mark.parametrize("pol", [MAT, REC], ids=lambda p: p.mode)
def test_backward_allocates_no_full_length_temporaries(pol):
    # full-length arrays: the five gradients (5 L*d); chunk-local
    # temporaries fill the rest.  A backward that replays the forward and
    # assembles whole-array identities traces 13+.
    L, d = 1024, 16
    inst = make_instance(ModelKind("general"), L, d, d, seed=20)
    plan = ChunkPlan(L, 64)
    dO = rand_dO(L, d, seed=21)
    backward_chunkwise(inst, dO, plan, pol)  # fill the mask cache outside the trace
    tracemalloc.start()
    try:
        backward_chunkwise(inst, dO, plan, pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11.5 * L * d * 8, peak / (L * d * 8)


def _traced_peak(fn):
    fn()  # fill the mask cache outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pol", [MAT, REC], ids=lambda p: p.mode)
def test_passes_hold_no_decay_table(pol):
    # each sweep forms a chunk's decay factors when it reaches the chunk, so
    # neither pass holds 4 L*d of them: the forward holds O (and the
    # states), the backward the five gradients plus chunk-local scratch
    L, d = 1024, 16
    inst = make_instance(ModelKind("general"), L, d, d, seed=20)
    plan = ChunkPlan(L, 64)
    dO = rand_dO(L, d, seed=21)
    fwd = _traced_peak(lambda: forward_chunkwise(inst, plan, pol))
    bwd = _traced_peak(lambda: backward_chunkwise(inst, dO, plan, pol))
    assert fwd <= 2.5 * L * d * 8, fwd / (L * d * 8)
    assert bwd <= 6.5 * L * d * 8, bwd / (L * d * 8)


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
            assert rel_err(getattr(g, f).data, getattr(want, f).data) <= 1e-9, (pol.mode, f)


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
            assert rel_err(getattr(g, f).data, getattr(want, f).data) <= 1e-9, (pol.mode, f)


@pytest.mark.parametrize("L, C, dk, seed, floor, chunk", [
    (200, 64, 3, 104, 1e-12, 0),  # the strict xfail's instance
    (24, 2, 2, 4, 1e-300, 1),     # chunk 0 stays finite
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
    _, _, c = forward_chunkwise(inst, ChunkPlan(8, 8), MAT)
    assert c.state_writes == 1
    _, _, c = forward_chunkwise(inst, ChunkPlan(8, 2), MAT)
    assert c.state_writes == 4
    _, _, c = forward_chunkwise(inst, ChunkPlan(8, 2), REC)
    assert c.state_writes == 0


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
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=16)
    with pytest.raises(ValueError):
        forward_chunkwise(inst, ChunkPlan(9, 3), MAT)
    with pytest.raises(ValueError):
        backward_chunkwise(inst, rand_dO(8, 2), ChunkPlan(7, 3), REC)
    with pytest.raises(ValueError):
        predict_cost(8, 2, 2, ChunkPlan(9, 3), MAT)


def test_bad_policy_and_pass_rejected():
    with pytest.raises(ValueError):
        ChunkPolicy("cache")
    with pytest.raises(ValueError):
        predict_cost(8, 2, 2, ChunkPlan(8, 4), MAT, "sideways")
