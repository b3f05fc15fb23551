"""Log-space gates, cumulative decays, chunk plans and chunk factors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glakit import (ChunkPlan, GateSeq, ModelKind, chunk_relative_decays,
                    cumulative_log_decay, make_instance)


def make_gates(la, lb):
    return GateSeq(np.asarray(la, dtype=float), np.asarray(lb, dtype=float))


def random_gates(L, dk, dv, seed, floor=0.5):
    rng = np.random.default_rng(seed)
    la = rng.uniform(math.log(floor), 0.0, (L, dk))
    lb = rng.uniform(math.log(floor), 0.0, (L, dv))
    return GateSeq(la, lb)


def test_rejects_positive_log_gates():
    with pytest.raises(ValueError, match=r"^log_alpha must be <= 0 .* in shape \(1, 1\)$"):
        make_gates([[0.1]], [[0.0]])
    with pytest.raises(ValueError, match=r"^log_beta must be <= 0 .* in shape \(1, 1\)$"):
        make_gates([[0.0]], [[0.1]])


@pytest.mark.parametrize("la,lb,match", [
    (np.zeros(3), np.zeros(3), r"^log_alpha needs a non-empty 2-D array, got shape \(3,\)$"),
    (np.zeros((2, 3, 1)), np.zeros((2, 3)),
     r"^log_alpha needs a non-empty 2-D array, got shape \(2, 3, 1\)$"),
    (np.zeros((3, 2)), np.zeros((4, 2)), r"disagree on L: \(3, 2\) vs \(4, 2\)"),
    (np.zeros((3, 2)), np.zeros(3), r"^log_beta needs a non-empty 2-D array, got shape \(3,\)$"),
])
def test_gate_shape_errors_name_the_fault(la, lb, match):
    with pytest.raises(ValueError, match=match):
        GateSeq(la, lb)


@pytest.mark.parametrize("la,lb,match", [
    (np.zeros((0, 2)), np.zeros((0, 3)), r"^log_alpha needs a non-empty 2-D array, got shape \(0, 2\)$"),
    (np.zeros((3, 0)), np.zeros((3, 2)), r"^log_alpha needs a non-empty 2-D array, got shape \(3, 0\)$"),
    (np.zeros((3, 2)), np.zeros((3, 0)), r"^log_beta needs a non-empty 2-D array, got shape \(3, 0\)$"),
], ids=["no-rows", "no-key-columns", "no-value-columns"])
def test_empty_gate_sequence_rejected(la, lb, match):
    with pytest.raises(ValueError, match=match):
        GateSeq(la, lb)


def test_cumulative_identity_gates():
    g = make_gates(np.zeros((5, 2)), np.zeros((5, 3)))
    log_b, log_d = cumulative_log_decay(g.log_alpha, g.log_beta)
    assert np.array_equal(log_b, np.zeros((5, 2)))
    assert np.array_equal(log_d, np.zeros((5, 3)))


def test_cumulative_half_powers():
    lhalf = math.log(0.5)
    g = make_gates([[lhalf]] * 3, [[0.0]] * 3)
    log_b, _ = cumulative_log_decay(g.log_alpha, g.log_beta)
    assert np.allclose(np.exp(log_b[:, 0]), [0.5, 0.25, 0.125], rtol=1e-15)


def test_cumulative_telescopes_to_gates():
    g = random_gates(20, 3, 2, seed=0)
    log_b, _ = cumulative_log_decay(g.log_alpha, g.log_beta)
    steps = np.exp(log_b[1:] - log_b[:-1])
    assert np.max(np.abs(steps - np.exp(g.log_alpha[1:]))) < 1e-14


def test_cumulative_monotone_and_anchored():
    g = random_gates(12, 2, 2, seed=1)
    log_b, log_d = cumulative_log_decay(g.log_alpha, g.log_beta)
    assert np.all(np.diff(log_b, axis=0) <= 0)
    assert np.all(np.diff(log_d, axis=0) <= 0)
    assert np.array_equal(log_b[0], g.log_alpha[0])
    assert np.array_equal(log_d[0], g.log_beta[0])


@pytest.mark.parametrize("L,C,expected", [(10, 3, [(0, 3), (3, 6), (6, 9), (9, 10)]),
                                          (4, 4, [(0, 4)]),
                                          (4, 9, [(0, 4)]),
                                          (3, 1, [(0, 1), (1, 2), (2, 3)])])
def test_chunk_plan_coverage(L, C, expected):
    plan = ChunkPlan(L, C)
    assert list(plan.boundaries) == expected
    assert plan.boundaries[0][0] == 0 and plan.boundaries[-1][1] == L


@pytest.mark.parametrize("L,C", [(0, 4), (8, 0), (8, -3)])
def test_chunk_plan_needs_positive_length_and_chunk(L, C):
    # with C < 0 the range of chunk starts is empty: a plan of no chunks
    with pytest.raises(ValueError, match="ChunkPlan needs L >= 1 and C >= 1"):
        ChunkPlan(L, C)


def test_chunk_factors_identity_gates():
    g = make_gates(np.zeros((6, 2)), np.zeros((6, 2)))
    decs = chunk_relative_decays(g.log_alpha, g.log_beta, ChunkPlan(6, 4))
    for bd, dd, lgb, _ in decs:
        for arr in (bd, dd, bd[-1:], dd[-1:]):
            assert np.array_equal(arr, np.ones_like(arr))
        assert np.array_equal(np.exp(lgb), np.ones(2))


def test_chunk_factors_constant_gate():
    # scalar gate 0.5 per step, one chunk of length 2:
    # dagger = (g, g^2), gamma = g^2
    g = 0.5
    gates = make_gates([[math.log(g)]] * 2, [[0.0]] * 2)
    ((bd, _, lgb, _),) = chunk_relative_decays(gates.log_alpha, gates.log_beta, ChunkPlan(2, 2))
    assert np.allclose(bd[:, 0], [g, g * g], rtol=1e-15)
    assert np.allclose(bd[-1:], [g * g], rtol=1e-15)
    assert np.allclose(np.exp(lgb), [g * g], rtol=1e-15)


def test_gamma_over_dagger_matches_end_of_chunk_decay():
    # the backward's reverse sweep scales a chunk's K and V rows by
    # gamma / dagger, each row's decay to the chunk's end
    g = random_gates(23, 3, 2, seed=2)
    plan = ChunkPlan(23, 5)
    for (s, e), (bd, dd, _, _) in zip(plan.boundaries,
                                      chunk_relative_decays(g.log_alpha, g.log_beta, plan)):
        for lg, dagger, gamma in ((g.log_alpha, bd, bd[-1:]), (g.log_beta, dd, dd[-1:])):
            lc = np.add.accumulate(lg[s:e], axis=0)
            assert np.max(np.abs(gamma / dagger - np.exp(lc[-1] - lc))) <= 1e-12


def test_factors_bounded():
    g = random_gates(17, 2, 3, seed=3, floor=0.25)
    decs = chunk_relative_decays(g.log_alpha, g.log_beta, ChunkPlan(17, 4))
    for bd, dd, _, _ in decs:
        for arr in (bd, dd, bd[-1:], dd[-1:]):
            assert np.all(arr > 0.0)
            assert np.all(arr <= 1.0 + 1e-15)


def test_plan_mismatch_rejected():
    g = random_gates(8, 2, 2, seed=4)
    with pytest.raises(ValueError):
        chunk_relative_decays(g.log_alpha, g.log_beta, ChunkPlan(9, 3))


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 60), C=st.integers(1, 25), dk=st.integers(1, 4),
       dv=st.integers(1, 4), seed=st.integers(0, 2**32),
       kind=st.sampled_from(["vanilla", "retnet", "gla_beta_one", "general"]),
       floor=st.sampled_from([0.5, 1e-12]))
@example(L=1, C=1, dk=2, dv=3, seed=1, kind="general", floor=0.5)     # L=1
@example(L=7, C=1, dk=2, dv=2, seed=2, kind="general", floor=1e-12)   # C=1
@example(L=23, C=5, dk=3, dv=1, seed=3, kind="general", floor=1e-12)  # ragged last chunk
def test_chunk_factors_are_exps_of_within_chunk_sums(L, C, dk, dv, seed, kind, floor):
    # each chunk's factors come from its own rows only, never from a
    # difference of whole-sequence prefix sums, and stay <= 1 exactly
    g = make_instance(ModelKind(kind), L, dk, dv, seed=seed, gate_floor=floor).gates
    plan = ChunkPlan(L, C)
    decs = chunk_relative_decays(g.log_alpha, g.log_beta, plan)
    assert len(decs) == plan.num_chunks
    for (s, e), (bd, dd, lgb, lgd) in zip(plan.boundaries, decs):
        for lg, dagger, gamma, log_gamma in ((g.log_alpha, bd, bd[-1:], lgb),
                                             (g.log_beta, dd, dd[-1:], lgd)):
            lc = np.add.accumulate(lg[s:e], axis=0)
            assert dagger.tobytes() == np.exp(lc).tobytes()
            assert gamma.tobytes() == np.exp(lc[-1]).tobytes()
            assert log_gamma.tobytes() == lc[-1].tobytes()
            assert np.all(dagger <= 1.0) and np.all(0.0 < gamma) and np.all(gamma <= 1.0)
