"""Instance generation determinism, the packaged check procedures and their judges,
and the floating-point state that the checks and the forms own."""

import contextlib
import functools
import math
import time
import types
import warnings

import numpy as np
import pytest

import glakit.checks
from glakit import (ChunkPlan, ChunkPolicy, CheckReport, GateSeq, GlaInstance, ModelKind,
                    SeqTensor, SplitMix64, backward_chunkwise, backward_parallel,
                    backward_recurrent_exact, backward_recurrent_fd, check_causality,
                    check_equivalence, check_gradients, cumulative_log_decay,
                    forward_chunkwise, forward_parallel, forward_recurrent, make_instance,
                    max_abs, rel_err)


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
    log_b, log_d = cumulative_log_decay(inst.gates.log_alpha, inst.gates.log_beta)
    assert np.array_equal(log_b, np.zeros((5, 2)))
    assert np.array_equal(log_d, np.zeros((5, 3)))


def test_retnet_geometric_cumulative_decay():
    inst = make_instance(ModelKind("retnet", 0.9), L=3, dk=2, dv=2, seed=2)
    log_b, _ = cumulative_log_decay(inst.gates.log_alpha, inst.gates.log_beta)
    b = np.exp(log_b)
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


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("name", ["L", "dk", "dv"])
def test_make_instance_names_a_bad_size(name, size):
    sizes = dict(L=4, dk=2, dv=3) | {name: size}
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {size}$"):
        make_instance(ModelKind("general"), **sizes, seed=1)


def test_check_equivalence_passes_and_reports():
    inst = make_instance(ModelKind("vanilla"), L=16, dk=3, dv=2, seed=5)
    reports = check_equivalence(inst, chunk_sizes=(1, 3, 8, 16), tol=1e-10)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "parallel_vs_recurrent" in names
    assert "chunkwise_C3_vs_recurrent" in names
    for r in reports:
        assert r.passed == (r.max_rel_err <= r.tolerance)


def test_report_at_twice_the_tolerance_fails():
    # a verdict loosened to some multiple of the tolerance would pass this pair
    t0 = time.perf_counter()
    a = np.array([[1.0, -0.5]])
    for scale, passed in ((0.5, True), (2.0, False)):
        r = CheckReport.from_arrays("x", a, a * (1 + scale * 1e-6), 1e-6, t0)
        assert r.max_rel_err == pytest.approx(scale * 1e-6 / (1 + scale * 1e-6), rel=1e-9)
        assert r.passed is passed, r


def test_rel_err_of_a_small_magnitude_pair():
    # the 1e-8 floor only guards an all-zero pair: at 1e-6 scale the error is
    # relative to the larger magnitude, so a raised floor would hide it
    a = np.array([1e-6, -2e-6])
    b = np.array([1e-6, -2.002e-6])
    assert rel_err(a, b) == pytest.approx(2e-9 / 2.002e-6, rel=1e-9)
    assert rel_err(a * 1e-6, b * 1e-6) == pytest.approx(2e-15 / 1e-8, rel=1e-9)


_pair = functools.partial(lambda seed, scale: [scale * SplitMix64(seed).fill_pm1(3, 5),
                                                scale * SplitMix64(seed + 1).fill_pm1(3, 5)])


@pytest.mark.parametrize("a, b", [
    *(_pair(seed, scale) for seed, scale in ((1, 1.0), (3, 1e-3), (5, 7.5), (7, 1e-12))),
    (np.empty((0, 3)), np.empty((0, 3))),
    (np.array([[1e-10, -3e-10]]), np.array([[2e-10, 0.0]])),  # under the 1e-8 floor
], ids=["pm1", "1e-3", "7.5", "1e-12", "empty", "under_floor"])
def test_report_errors_are_max_abs_and_rel_err(a, b):
    # from_arrays forms |a - b| once for both fields: each must still equal
    # its public function bit for bit
    r = CheckReport.from_arrays("x", a, b, 1e-6, time.perf_counter())
    assert (r.max_abs_err, r.max_rel_err) == (max_abs(a, b), rel_err(a, b))
    if a.size:
        assert r.max_abs_err == float(np.max(np.abs(a - b))) > 0.0
    else:
        assert (r.max_abs_err, r.max_rel_err) == (0.0, 0.0)
    if a.size and max(np.max(np.abs(a)), np.max(np.abs(b))) < 1e-8:
        assert r.max_rel_err == r.max_abs_err / 1e-8


def test_check_causality_draws_and_runs_once_per_group(monkeypatch):
    # each group of trials is one fill of the stream and one run of each
    # raw forward; the references ride in the first group, so no public
    # form runs at all
    inst = make_instance(ModelKind("general"), L=64, dk=64, dv=64, seed=17)
    calls = []

    def counted(owner, name, label):
        fn = getattr(owner, name)

        def wrapper(*args, **kw):
            calls.append(label)
            return fn(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counted(SplitMix64, "_fill", "fill")
    for module in (glakit.recurrent, glakit.parallel, glakit.chunkwise):
        counted(module, "_forward_raw", module.__name__.split(".")[-1])

    def public(*args, **kw):
        raise AssertionError("a public forward ran")

    for name in ("forward_recurrent", "forward_parallel", "forward_chunkwise"):
        monkeypatch.setattr(glakit.checks, name, public)
    assert check_causality(inst, trials=10, seed=18).passed  # B = 4: groups of 4, 4, 2
    assert calls == ["fill", "recurrent", "parallel", "chunkwise"] * 3


def test_check_causality_draws_one_cut_per_trial(monkeypatch):
    # each trial of a batch replaces the rows from its own cut on, in all
    # five inputs, and no row before it
    inst = make_instance(ModelKind("general"), L=12, dk=2, dv=2, seed=11)
    cuts = []
    raw = glakit.chunkwise._forward_raw

    def seen(*args):
        assert args[0].ndim == 3, "an unbatched run"
        r = 0 if cuts else 1  # the first group's element 0 is the reference: the instance
        if r:
            assert all(a[0].tobytes() == base.tobytes() for a, base in zip(args, inst.arrays))
        for trial in zip(*(a[r:] for a in args[:5])):
            rows = [np.flatnonzero((a != base).any(axis=-1))
                    for a, base in zip(trial, inst.arrays)]
            assert rows[0].size, "a trial left its inputs as they were"
            cuts.append(int(rows[0][0]))
            assert all(np.array_equal(r, np.arange(cuts[-1], 12)) for r in rows)
        return raw(*args)

    monkeypatch.setattr(glakit.chunkwise, "_forward_raw", seen)
    assert check_causality(inst, trials=7, seed=12).passed
    assert len(cuts) == 7 and all(1 <= c < 12 for c in cuts)


def _leak(O, V):
    """Add a 1e-14-sized leak from the last input row into output row 0, per batch element."""
    O[..., 0, :] += 1e-14 * V[..., -1, :].sum(axis=-1, keepdims=True)


def test_check_causality_fails_a_leaking_recurrent_form(monkeypatch):
    # the recurrent form is judged bit-exact, apart from the tolerance that
    # parallel and chunkwise get: a leak far below 1e-12 must still fail.
    # The leak sits in the raw kernel, so the reference and the trials,
    # which share its batched run, all carry it
    raw = glakit.recurrent._forward_raw

    def leaking(Q, K, V, la, lb, **kw):
        O, states = raw(Q, K, V, la, lb, **kw)
        _leak(O, V)
        return O, states

    monkeypatch.setattr(glakit.recurrent, "_forward_raw", leaking)
    inst = make_instance(ModelKind("general"), L=12, dk=2, dv=2, seed=11)
    report = check_causality(inst, trials=5, seed=12)
    assert not report.passed and report.max_rel_err == math.inf, report


def _leak_parallel(monkeypatch):
    raw = glakit.parallel._forward_raw

    def leaking(Q, K, V, la, lb):
        O = raw(Q, K, V, la, lb)
        _leak(O, V)
        return O

    monkeypatch.setattr(glakit.parallel, "_forward_raw", leaking)


def _leak_chunkwise(monkeypatch):
    raw = glakit.chunkwise._forward_raw

    def leaking(Q, K, V, la, lb, plan, materialize):
        O, states, flops = raw(Q, K, V, la, lb, plan, materialize)
        _leak(O, V)
        return O, states, flops

    monkeypatch.setattr(glakit.chunkwise, "_forward_raw", leaking)


def _assert_tol_0_catches_the_leak(monkeypatch, leak):
    # a sound form's prefix is bit-identical, so at tol 0 it passes, and a
    # leak of ~1e-14 (below the default 1e-12) fails with a finite error
    inst = make_instance(ModelKind("general"), L=12, dk=2, dv=2, seed=11)
    assert check_causality(inst, trials=5, seed=12, tol=0.0).passed
    leak(monkeypatch)
    report = check_causality(inst, trials=5, seed=12, tol=0.0)
    assert not report.passed and 0.0 < report.max_rel_err < math.inf, report


def test_check_causality_fails_a_leaking_parallel_form(monkeypatch):
    _assert_tol_0_catches_the_leak(monkeypatch, _leak_parallel)


def test_check_causality_fails_a_leaking_chunkwise_form(monkeypatch):
    _assert_tol_0_catches_the_leak(monkeypatch, _leak_chunkwise)


def _perturbed(inst, cut, rng):
    """The trial's instance: fresh rows from cut on, drawn for Q, K, V, log_alpha, log_beta."""
    n = inst.L - cut
    fresh = (rng.fill_pm1(n, inst.dk), rng.fill_pm1(n, inst.dk), rng.fill_pm1(n, inst.dv),
             rng.fill_log_gate(n, inst.dk, np.log(0.5)), rng.fill_log_gate(n, inst.dv, np.log(0.5)))
    Q, K, V, la, lb = (np.concatenate([a[:cut], f]) for a, f in zip(inst.arrays, fresh))
    return GlaInstance(SeqTensor(Q), SeqTensor(K), SeqTensor(V), GateSeq(la, lb))


def _per_trial_causality(inst, trials, seed, chunk, tol=1e-12):
    """check_causality's report fields but elapsed, from one call of each public form per trial."""
    rng = SplitMix64(seed)
    plan = ChunkPlan(inst.L, chunk)

    def chunkwise_O(inst):
        try:
            return forward_chunkwise(inst, plan, ChunkPolicy("materialize"))[0].data
        except ValueError:
            return None

    ref_rec, ref_par = forward_recurrent(inst).O.data, forward_parallel(inst).data
    ref_chk = chunkwise_O(inst)
    worst_abs = worst_rel = 0.0
    exact_ok = True
    for _ in range(trials):
        cut = 1 + rng.next_u64() % (inst.L - 1)
        pert = _perturbed(inst, cut, rng)
        exact_ok &= np.array_equal(forward_recurrent(pert).O.data[:cut], ref_rec[:cut])
        for got, ref in ((forward_parallel(pert).data, ref_par), (chunkwise_O(pert), ref_chk)):
            if got is None or ref is None:
                worst_abs = worst_rel = math.inf
                continue
            worst_abs = max(worst_abs, float(np.max(np.abs(got[:cut] - ref[:cut]))))
            worst_rel = max(worst_rel, rel_err(got[:cut], ref[:cut]))
    return ("causality", worst_abs, worst_rel if exact_ok else math.inf, tol,
            exact_ok and worst_rel <= tol)


@pytest.mark.parametrize("leaky", [None, _leak_parallel, _leak_chunkwise],
                         ids=["sound", "leaky_parallel", "leaky_chunkwise"])
@pytest.mark.parametrize("L, d, C, floor, trials, groups", [
    (12, 2, 4, 0.5, 20, [21]),            # one group, and the reference
    (40, 50, 8, 0.5, 20, [9, 8, 4]),      # B = 2**15 // (40 * 100) = 8, ragged
    (128, 80, 32, 0.5, 3, [2, 1, 1]),     # B = 1
    (24, 2, 24, 1e-300, 7, [8]),          # the chunkwise form underflows: FAIL
], ids=["one_group", "ragged", "B=1", "floor_1e-300"])
def test_check_causality_groups_match_a_per_trial_loop(monkeypatch, leaky, L, d, C, floor,
                                                      trials, groups):
    # grouping moves no draw and no bit: every field but elapsed equals a
    # per-trial loop over the public forms.  A leaky form gives the worst
    # errors a value that depends on every trial's draws.  The reference
    # rides in the first group: no form runs unbatched
    if leaky:
        leaky(monkeypatch)
    batches = []
    rec_raw = glakit.recurrent._forward_raw

    def counted(Q, *args, **kw):
        batches.append(Q.shape[:-2])
        return rec_raw(Q, *args, **kw)

    inst = make_instance(ModelKind("general"), L, d, d, seed=17, gate_floor=floor)
    want = _per_trial_causality(inst, trials, seed=18, chunk=C)
    monkeypatch.setattr(glakit.recurrent, "_forward_raw", counted)
    r = check_causality(inst, trials=trials, seed=18, chunk=C)
    assert batches == [(n,) for n in groups]
    assert (r.name, r.max_abs_err, r.max_rel_err, r.tolerance, r.passed) == want
    assert math.isinf(r.max_rel_err) == (floor != 0.5)
    assert (r.max_abs_err > 0) == (leaky is not None or floor != 0.5)


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
    for trials in (0, -3):  # a report over no trial would pass having compared nothing
        with pytest.raises(ValueError, match=f"^causality check needs trials >= 1, got {trials}$"):
            check_causality(inst, trials=trials)


def test_check_causality_needs_two_rows():
    inst = make_instance(ModelKind("general"), L=1, dk=2, dv=2, seed=13)
    with pytest.raises(ValueError):
        check_causality(inst)


# At gate floor 1e-300 a chunk of a few dozen rows underflows b_dagger, so
# the chunkwise form raises on its non-finite output.  The checks measure
# that as FAIL rows with infinite error; they never throw.

def test_check_causality_reports_underflowing_chunk_as_fail():
    inst = make_instance(ModelKind("general"), L=64, dk=2, dv=2, seed=14,
                         gate_floor=1e-300)
    with pytest.raises(ValueError):  # the default chunk, (64 + 2) // 3 = 22 rows
        forward_chunkwise(inst, ChunkPlan(64, 22), ChunkPolicy("materialize"))
    report = check_causality(inst, trials=5, seed=15)
    assert report.name == "causality" and not report.passed
    assert report.max_rel_err == math.inf


def test_check_causality_reports_an_overflowing_reference_as_fail():
    # the references come from the batched raw runs, which validate
    # nothing.  Here only the last output row overflows; every trial
    # redraws that row, so no trial's prefix sees it, and the check must
    # still FAIL with an infinite error, as each form's public run rejects it
    L, d = 6, 2
    big = np.ones((L, d))
    big[-1] = 1e200
    zero = np.zeros((L, d))
    inst = GlaInstance(SeqTensor(big), SeqTensor(big), SeqTensor(np.ones((L, d))),
                       GateSeq(zero, zero))
    for form in (lambda: forward_recurrent(inst), lambda: forward_parallel(inst),
                 lambda: forward_chunkwise(inst, ChunkPlan(L, 2), ChunkPolicy("materialize"))):
        with pytest.raises(ValueError):
            form()
    report = check_causality(inst, trials=5, seed=15)
    assert not report.passed and report.max_rel_err == math.inf, report


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


def _grads(g):
    return [g.dQ, g.dK, g.dV, g.dlog_alpha, g.dlog_beta]


def _chunkwise_forward(inst, dO, plan, mode):
    O, states, cost = forward_chunkwise(inst, plan, ChunkPolicy(mode))
    return [O.data, *(() if states is None else states), cost]


def _chunkwise_backward(inst, dO, plan, mode):
    g, cost = backward_chunkwise(inst, dO, plan, ChunkPolicy(mode))
    return [*_grads(g), cost]


_FORMS = {  # each public form, as (inst, dO, plan) -> its arrays and counters
    "forward_recurrent": lambda inst, dO, plan: [forward_recurrent(inst).O.data],
    "backward_recurrent_exact": lambda inst, dO, plan: _grads(backward_recurrent_exact(inst, dO)),
    "backward_recurrent_fd": lambda inst, dO, plan: _grads(backward_recurrent_fd(inst, dO)),
    "forward_parallel": lambda inst, dO, plan: [forward_parallel(inst).data],
    "backward_parallel": lambda inst, dO, plan: _grads(backward_parallel(inst, dO)),
}
for _mode in ("materialize", "recompute"):
    _FORMS[f"forward_chunkwise_{_mode}"] = functools.partial(_chunkwise_forward, mode=_mode)
    _FORMS[f"backward_chunkwise_{_mode}"] = functools.partial(_chunkwise_backward, mode=_mode)


def _outcome(form, inst, dO, plan):
    """The bytes of every array the form returns and its counters, or its ValueError."""
    try:
        out = _FORMS[form](inst, dO, plan)
    except ValueError as exc:
        return str(exc)
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in out]


@pytest.mark.parametrize("L, d, seed, floor, C", [
    (200, 3, 104, 1e-12, 64),  # the strict xfail's instance: chunkwise overflows
    (40, 3, 17, 0.5, 16),
], ids=["floor1e-12", "clean"])
@pytest.mark.parametrize("form", list(_FORMS))
def test_forms_own_their_floating_point_state(form, L, d, seed, floor, C):
    # with numpy set to raise on every floating-point error (np.seterr(all=
    # "raise"), scoped here by np.errstate), a benign underflow must not become
    # a FloatingPointError, nor an overflow anything but the chunk-naming
    # ValueError: each form gives what it gives under numpy's default state
    inst = make_instance(ModelKind("general"), L, d, d, seed=seed, gate_floor=floor)
    dO = SeqTensor(SplitMix64(seed + 1).fill_pm1(L, d))
    plan = ChunkPlan(L, C)
    want = _outcome(form, inst, dO, plan)
    if isinstance(want, str):
        assert form.endswith(("chunkwise_materialize", "chunkwise_recompute")) and floor < 0.5
        assert want.startswith("non-finite values from chunk 0 (rows 0..63)"), want
    with np.errstate(all="raise"):
        assert _outcome(form, inst, dO, plan) == want
