"""Instance generation determinism and the packaged check procedures."""

import contextlib
import math
import warnings

import numpy as np
import pytest

from glakit import (ChunkPlan, ChunkPolicy, ModelKind, check_causality,
                    check_equivalence, check_gradients, cumulative_log_decay,
                    forward_chunkwise, make_instance)


def test_same_seed_bitwise_identical():
    a = make_instance(ModelKind("general"), L=6, dk=3, dv=2, seed=99)
    b = make_instance(ModelKind("general"), L=6, dk=3, dv=2, seed=99)
    assert np.array_equal(a.Q.data, b.Q.data)
    assert np.array_equal(a.K.data, b.K.data)
    assert np.array_equal(a.V.data, b.V.data)
    assert np.array_equal(a.gates.log_alpha, b.gates.log_alpha)
    assert np.array_equal(a.gates.log_beta, b.gates.log_beta)
    c = make_instance(ModelKind("general"), L=6, dk=3, dv=2, seed=100)
    assert not np.array_equal(a.Q.data, c.Q.data)


def test_vanilla_has_zero_cumulative_decay():
    inst = make_instance(ModelKind("vanilla"), L=5, dk=2, dv=3, seed=1)
    cd = cumulative_log_decay(inst.gates)
    assert np.array_equal(cd.log_b, np.zeros((5, 2)))
    assert np.array_equal(cd.log_d, np.zeros((5, 3)))


def test_retnet_geometric_cumulative_decay():
    inst = make_instance(ModelKind("retnet", 0.9), L=3, dk=2, dv=2, seed=2)
    cd = cumulative_log_decay(inst.gates)
    b = np.exp(cd.log_b)
    assert np.allclose(b[:, 0], [0.9, 0.81, 0.729], rtol=1e-14)


def test_gate_ranges():
    inst = make_instance(ModelKind("general"), L=50, dk=2, dv=2, seed=3,
                         gate_floor=0.5)
    la = inst.gates.log_alpha
    assert np.all(la <= 0.0) and np.all(la >= math.log(0.5))
    one = make_instance(ModelKind("gla_beta_one"), L=5, dk=2, dv=2, seed=4)
    assert np.array_equal(one.gates.log_beta, np.zeros((5, 2)))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ModelKind("retnet", 1.0)
    with pytest.raises(ValueError):
        ModelKind("softmax")
    with pytest.raises(ValueError):
        make_instance(ModelKind("general"), L=4, dk=2, dv=2, seed=1, gate_floor=0.0)
    with pytest.raises(ValueError):
        make_instance(ModelKind("general"), L=0, dk=2, dv=2, seed=1)


def test_check_equivalence_passes_and_reports():
    inst = make_instance(ModelKind("vanilla"), L=16, dk=3, dv=2, seed=5)
    reports = check_equivalence(inst, chunk_sizes=(1, 3, 8, 16), tol=1e-10)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "parallel_vs_recurrent" in names
    assert "chunkwise_C3_vs_recurrent" in names
    for r in reports:
        assert r.passed == (r.max_rel_err <= r.tolerance)


def test_check_equivalence_adversarial_gate_floor():
    inst = make_instance(ModelKind("general"), L=256, dk=2, dv=2, seed=6,
                         gate_floor=0.99)
    reports = check_equivalence(inst, chunk_sizes=(64,), tol=1e-9)
    assert all(r.passed for r in reports)


def test_check_equivalence_zero_tolerance_fails():
    # fp noise makes tol=0 unachievable; exercises the failure path
    inst = make_instance(ModelKind("general"), L=8, dk=2, dv=2, seed=7)
    reports = check_equivalence(inst, chunk_sizes=(3,), tol=0.0)
    assert any(not r.passed for r in reports)


@pytest.mark.parametrize("L,d", [(6, 3), (64, 16)])
def test_check_gradients_general(L, d):
    inst = make_instance(ModelKind("general"), L=L, dk=d, dv=d, seed=8)
    reports = check_gradients(inst, eps=1e-5, tol=1e-6)
    assert len(reports) == 20  # 4 implementations x 5 tensors
    assert all(r.passed for r in reports)


def test_check_gradients_boundary_gates_shifted():
    # vanilla gates sit at log-gate 0; the check shifts the base point
    # inside the domain and still has to pass
    inst = make_instance(ModelKind("vanilla"), L=5, dk=2, dv=2, seed=9)
    reports = check_gradients(inst, eps=1e-5, tol=1e-6)
    assert all(r.passed for r in reports)


def test_check_gradients_flipped_sign_detected():
    inst = make_instance(ModelKind("general"), L=5, dk=2, dv=2, seed=10)
    reports = check_gradients(inst, eps=1e-5, tol=1e-6, flip_dlogb_sign=True)
    flipped = [r for r in reports if r.name.endswith("dlog_alpha")]
    assert flipped and all(not r.passed for r in flipped)
    untouched = [r for r in reports if r.name.endswith(("dQ", "dK", "dV"))]
    assert all(r.passed for r in untouched)


def test_check_causality_trials():
    inst = make_instance(ModelKind("general"), L=12, dk=2, dv=2, seed=11)
    report = check_causality(inst, trials=20, seed=12)
    assert report.passed
    assert report.max_abs_err == 0.0  # in practice prefixes are bit-identical


def test_check_causality_needs_two_rows():
    inst = make_instance(ModelKind("general"), L=1, dk=2, dv=2, seed=13)
    with pytest.raises(ValueError):
        check_causality(inst)


# At gate floor 1e-300 a chunk of a few dozen rows underflows b_dagger, so
# the chunkwise form raises on its non-finite output.  The checks measure
# that as FAIL rows with infinite error; they never throw.

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_check_causality_reports_underflowing_chunk_as_fail():
    inst = make_instance(ModelKind("general"), L=64, dk=2, dv=2, seed=14,
                         gate_floor=1e-300)
    with pytest.raises(ValueError):  # the default chunk, (64 + 2) // 3 = 22 rows
        forward_chunkwise(inst, ChunkPlan(64, 22), ChunkPolicy("materialize"))
    report = check_causality(inst, trials=5, seed=15)
    assert report.name == "causality" and not report.passed
    assert report.max_rel_err == math.inf


def test_equivalence_and_gradients_report_underflowing_chunk_as_fail():
    inst = make_instance(ModelKind("general"), L=24, dk=2, dv=2, seed=16,
                         gate_floor=1e-300)
    eq = {r.name: r for r in check_equivalence(inst, chunk_sizes=(1, 24))}
    assert eq["parallel_vs_recurrent"].passed
    assert eq["chunkwise_C1_vs_recurrent"].passed  # one-row chunks never underflow
    for name in ("chunkwise_C24_vs_recurrent", "policy_equivalence_C24"):
        assert not eq[name].passed and eq[name].max_rel_err == math.inf
    grads = check_gradients(inst, chunk=24)
    assert len(grads) == 20
    for r in grads:
        chunked = r.name.startswith("grad_chunkwise_")
        assert r.passed != chunked, r.name
        assert (r.max_rel_err == math.inf) == chunked, r.name


def _check_rows(inst, C):
    reports = [*check_equivalence(inst, chunk_sizes=(1, C)), *check_gradients(inst, chunk=C),
               check_causality(inst, trials=5, seed=15, chunk=C)]
    return [(r.name, r.max_abs_err, r.max_rel_err, r.tolerance, r.passed) for r in reports]


@contextlib.contextmanager
def _warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("strict", [_warnings_as_errors, lambda: np.errstate(all="raise")],
                         ids=["warnings_as_errors", "errstate_raise"])
def test_checks_own_their_floating_point_state(strict):
    # the underflowing chunk overflows, divides by zero and makes NaNs inside
    # the checks; the caller's warning filters and numpy error state must not
    # turn that into an exception or change a row
    inst = make_instance(ModelKind("general"), L=24, dk=2, dv=2, seed=16, gate_floor=1e-300)
    want = _check_rows(inst, 24)
    with strict():
        assert _check_rows(inst, 24) == want
