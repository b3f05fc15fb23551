"""Array primitives: pinned summation order, validation, suffix sums, frozen records."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glakit.tensor as tensor
from glakit import (ChunkPlan, ChunkPolicy, GateSeq, ModelKind, SeqTensor,
                    backward_recurrent_exact, chunk_relative_decays,
                    cumulative_log_decay, forward_chunkwise, forward_recurrent,
                    make_instance, mm, suffix_sum_arr)
from glakit.gates import chunk_factors
from glakit.tensor import prefix_sum


def naive_matmul(a, b):
    """Triple-loop oracle, ascending k, multiply then add."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.empty((m, n), np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc = acc + a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (3, 5))
    assert np.array_equal(mm(np.eye(3), x), x)


def test_matmul_hand():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    assert np.array_equal(mm(a, b), [[3.0], [7.0]])


@pytest.mark.parametrize("seed,shape_a,shape_b", [
    *(pytest.param(s, (8, 8), (8, 8), id=str(s)) for s in range(5)),
    pytest.param(5, (1, 7), (7, 6), id="row-vector"),      # q_t S_t in the recurrence
    pytest.param(6, (7, 6), (6, 1), id="column-vector"),   # the exact backward's matvecs
    pytest.param(7, (4, 1), (1, 3), id="k1"),
    pytest.param(8, (3, 9), (9, 5), id="non-square"),
    pytest.param(9, (4, 1, 6), (4, 6, 5), id="batch"),
    pytest.param(10, (4, 1, 6), (6, 5), id="batch-broadcast"),
])
def test_matmul_matches_triple_loop_bitwise(seed, shape_a, shape_b):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, shape_a)
    b = rng.uniform(-1, 1, shape_b)
    got = mm(a, b)
    batch = got.shape[:-2]
    A, B = np.broadcast_to(a, batch + shape_a[-2:]), np.broadcast_to(b, batch + shape_b[-2:])
    for idx in np.ndindex(batch):  # each batch element against the 2-D loop
        assert np.array_equal(got[idx], naive_matmul(A[idx], B[idx]))


@st.composite
def mm_operands(draw):
    """Shapes (..., m, k) and (..., k, n) whose batch axes broadcast either way."""
    batch = draw(st.lists(st.integers(1, 3), max_size=3))

    def side():
        kept = batch[len(batch) - draw(st.integers(0, len(batch))):]  # leading axes dropped
        return tuple(1 if draw(st.booleans()) else s for s in kept)  # or stretched from 1

    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    return side() + (m, k), side() + (k, n)


@settings(max_examples=60, deadline=None)
@given(shapes=mm_operands(), dtype=st.sampled_from([np.float64, np.longdouble]),
       seed=st.integers(0, 2**32))
@example(shapes=((2, 1, 3, 1), (3, 1, 4)), dtype=np.float64, seed=1)  # k = 1, both sides stretched
@example(shapes=((1, 5), (2, 5, 1)), dtype=np.float64, seed=2)        # m = n = 1, batch on b alone
@example(shapes=((3, 2, 4), (4, 3)), dtype=np.longdouble, seed=3)      # the result stays longdouble
def test_matmul_matches_triple_loop_bitwise_on_drawn_shapes(shapes, dtype, seed):
    shape_a, shape_b = shapes
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, shape_a).astype(dtype)
    b = rng.uniform(-1, 1, shape_b).astype(dtype)
    got = mm(a, b)
    batch = np.broadcast_shapes(shape_a[:-2], shape_b[:-2])
    assert got.shape == (*batch, shape_a[-2], shape_b[-1])
    assert got.dtype == dtype
    A, B = np.broadcast_to(a, batch + shape_a[-2:]), np.broadcast_to(b, batch + shape_b[-2:])
    for idx in np.ndindex(batch):
        assert np.array_equal(got[idx], naive_matmul(A[idx], B[idx]))  # longdouble pads its bytes


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        mm(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        mm(np.ones((4, 2, 3)), np.ones((4, 2, 3)))


def test_suffix_sum_zero_and_hand():
    assert np.array_equal(suffix_sum_arr(np.zeros((4, 2))), np.zeros((4, 2)))
    assert np.array_equal(suffix_sum_arr(np.array([[1.0], [2.0], [3.0]])),
                          [[6.0], [5.0], [3.0]])


def test_suffix_sum_of_a_vector_and_of_no_rows():
    assert np.array_equal(suffix_sum_arr(np.array([1.0, 2.0, 3.0])), [6.0, 5.0, 3.0])
    empty = suffix_sum_arr(np.zeros((0, 3)))
    assert empty.shape == (0, 3)


def test_suffix_sum_head_is_column_sum():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (9, 4))
    out = suffix_sum_arr(x)
    assert np.allclose(out[0], x.sum(axis=0), rtol=1e-12, atol=0)


def test_suffix_sum_difference_recovers_rows():
    # (a+b)-b is not exact in fp, so the recovery is checked at 1e-12.
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (16, 3))
    out = suffix_sum_arr(x)
    diff = out[:-1] - out[1:]
    assert np.max(np.abs(diff - x[:-1])) <= 1e-12


def sequential_prefix(x, axis=0):
    """Reference: out[t] = out[t-1] + x[t] along axis, one row at a time."""
    x = np.moveaxis(x, axis, 0)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.shape[0]):
        out[t] = out[t - 1] + x[t]
    return np.moveaxis(out, 0, axis)


def wide_range(rng, shape):
    """Magnitudes from 1e-8 to 1e8: any reordering of a running sum shows in the bits."""
    return rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-8, 9, shape)


# prefix_sum's two branches: every eligible array paired, and none
PAIR_FLOORS = {"paired": 0, "plain": 2**62}


@pytest.mark.parametrize("L", [1, 2, 37, 300])
def test_prefix_and_suffix_sums_are_sequential_bitwise(L, monkeypatch):
    for floor in PAIR_FLOORS.values():
        monkeypatch.setattr(tensor, "_PAIR_MIN_SIZE", floor)
        rng = np.random.default_rng(L)
        la, lb = -wide_range(rng, (L, 3)), -wide_range(rng, (L, 2))
        log_b, log_d = cumulative_log_decay(la, lb)
        assert log_b.tobytes() == sequential_prefix(la).tobytes()
        assert log_d.tobytes() == sequential_prefix(lb).tobytes()
        # leading axes are a batch: each element's rows are its own 2-D call's
        bla, blb = -wide_range(rng, (3, L, 3)), -wide_range(rng, (3, L, 2))
        batched = cumulative_log_decay(bla, blb)
        for b in range(3):
            own = cumulative_log_decay(bla[b], blb[b])
            assert [x[b].tobytes() for x in batched] == [x.tobytes() for x in own]
            assert batched[1][b].tobytes() == sequential_prefix(blb[b]).tobytes()

        x = wide_range(rng, (L, 4)) * rng.choice([-1.0, 1.0], (L, 4))
        out = suffix_sum_arr(x)
        assert out.flags.c_contiguous
        assert out.tobytes() == sequential_prefix(x[::-1])[::-1].tobytes()
        y = x.copy()
        assert suffix_sum_arr(y, out=y) is y and y.tobytes() == out.tobytes()  # in place
        if L >= 37:  # the data is order-sensitive, so the pins above discriminate
            assert not np.array_equal(sequential_prefix(x)[-1], out[0])


@pytest.mark.parametrize("g, c, dk, dv", [(1, 1, 2, 1), (4, 64, 64, 64), (3, 16, 5, 6),
                                          (2, 37, 8, 3), (1, 300, 4, 2)])
def test_chunk_factors_are_sequential_bitwise(g, c, dk, dv, monkeypatch):
    # a group's rows as (g, c, d), fresh or formed in parked rows as the
    # backward's sweep R does, hold each chunk's own sequential sums
    rng = np.random.default_rng(g * c + dk)
    la, lb = -wide_range(rng, (g, c, dk)), -wide_range(rng, (g, c, dv))
    parked = np.empty((g * c, dk)), np.empty((g * c, dv))
    for floor in PAIR_FLOORS.values():
        monkeypatch.setattr(tensor, "_PAIR_MIN_SIZE", floor)
        for out in (None, tuple(p.reshape(g, c, -1) for p in parked)):
            bd, dd = chunk_factors(la, lb, out)
            for dag, x in ((bd, la), (dd, lb)):
                lc = sequential_prefix(x, axis=-2)
                assert dag.tobytes() == np.exp(lc).tobytes()


def _specials(rng, x, share=0.2):
    """x with about a share of its entries set to NaN, +-inf or -0.0.

    The NaN is the one that inf - inf makes, as every NaN of the package
    does (its records refuse NaN): where both operands of an add are NaN,
    which payload and sign the result keeps is the compiled loop's choice,
    and numpy's real and complex loops choose differently.
    """
    with np.errstate(invalid="ignore"):
        nan = np.array(np.inf) - np.inf
    pick = rng.random(x.shape) < share
    x[pick] = rng.choice(np.array([nan, np.inf, -np.inf, -0.0], x.dtype), pick.sum())
    return x


def same_bits(a, b):
    """Equal bytes; for longdouble, equal values and signs, its padding bytes being arbitrary."""
    if a.dtype == np.longdouble:
        return (np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a), np.signbit(b)))
    return a.tobytes() == b.tobytes()


DTYPES = {"fp64": np.float64, "longdouble": np.longdouble, "complex128": np.complex128}


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(1, 48), min_size=1, max_size=3), axis=st.integers(-3, 2),
       layout=st.sampled_from(["fresh", "in place", "reversed", "strided last axis"]),
       dtype=st.sampled_from(sorted(DTYPES)), specials=st.booleans(),
       branch=st.sampled_from(sorted(PAIR_FLOORS) + ["default"]), seed=st.integers(0, 2**32))
@example(shape=[64, 32], axis=0, layout="fresh", dtype="longdouble", specials=False,
         branch="paired", seed=1)  # longdouble is never paired
@example(shape=[64, 32], axis=-1, layout="fresh", dtype="fp64", specials=False,
         branch="paired", seed=2)  # nor is the summed axis the last
@example(shape=[2048], axis=0, layout="in place", dtype="fp64", specials=False,
         branch="default", seed=3)  # nor a vector
@example(shape=[4, 64, 64], axis=-2, layout="in place", dtype="fp64", specials=True,
         branch="default", seed=4)  # the anchor's group of factors, above the floor
def test_prefix_sum_is_sequential_bitwise(shape, axis, layout, dtype, specials, branch, seed):
    # whichever branch runs, each column is the one sequential chain of
    # adds, for any axis, width, view or dtype, and whatever the data holds
    if not -len(shape) <= axis < len(shape):
        axis %= len(shape)
    rng = np.random.default_rng(seed)
    full = [*shape[:-1], 2 * shape[-1] if layout == "strided last axis" else shape[-1]]
    x = (wide_range(rng, full) * rng.choice([-1.0, 1.0], full)).astype(DTYPES[dtype])
    if dtype == "complex128":
        x = x + 1j * wide_range(rng, full)
    if specials:
        x = _specials(rng, x)
    if layout == "strided last axis":
        x = x[..., ::2]
    elif layout == "reversed":
        x = np.flip(x, axis)
    floor = PAIR_FLOORS.get(branch, tensor._PAIR_MIN_SIZE)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):  # inf - inf
        want = sequential_prefix(x, axis)
        mp.setattr(tensor, "_PAIR_MIN_SIZE", floor)
        if layout == "in place":
            assert prefix_sum(x, axis, x) is x
            got = x
        elif layout == "reversed":  # as suffix_sum_arr takes its operands
            out = np.empty_like(x)
            prefix_sum(x, axis, np.flip(out, axis))
            got = np.flip(out, axis)
        else:
            got = prefix_sum(x, axis, np.empty_like(x))
    assert same_bits(got, want)


def test_constructors_reject_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            SeqTensor([[1.0, bad]])
        # a NaN log-gate fails no sign comparison, so finiteness is checked first
        for la, lb, side in (([[-1.0, bad]], [[0.0]], "log_alpha"), ([[0.0]], [[bad]], "log_beta")):
            with pytest.raises(ValueError, match=f"non-finite value .* in {side} of shape"):
                GateSeq(la, lb)


def test_validation_allocates_no_record_sized_temporary():
    # finiteness and sign are checked by reductions; an elementwise check
    # would trace one 256 KiB bool array per 4096 x 64 record
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (4096, 64))
    la, lb = -rng.uniform(0, 1, (4096, 64)), -rng.uniform(0, 1, (4096, 64))
    tracemalloc.start()
    try:
        SeqTensor(a)
        GateSeq(la, lb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024, peak


def test_records_do_not_alias_a_writable_base():
    base = np.zeros((6, 2))
    g = GateSeq(base[:3], base[3:])
    x = SeqTensor(base[:2])
    base[0, 0] = 0.7  # a positive log-gate, had the view been kept
    assert g.log_alpha[0, 0] == 0.0 and x.data[0, 0] == 0.0
    assert not g.log_alpha.flags.writeable and not x.data.flags.writeable


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an owned input is kept, not copied, and marking it read-only "
                          "does not reach a writable view of it taken before the record")
def test_a_view_taken_before_the_record_cannot_change_it():
    a = np.zeros((3, 2))
    v = a[:]
    t = SeqTensor(a)
    v[0, 0] = np.nan
    assert np.isfinite(t.data).all()


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (0, 3)])
def test_seqtensor_rejects_non_matrix_shapes(shape):
    with pytest.raises(ValueError, match="non-empty 2-D array"):
        SeqTensor(np.zeros(shape))


def test_seqtensor_immutable():
    x = SeqTensor([[1.0, 2.0]])
    with pytest.raises(AttributeError):
        x.data = np.zeros((1, 2))
    with pytest.raises(ValueError):
        x.data[0, 0] = 9.0  # numpy read-only flag


def _records():
    """Every record type, the prefix-sum pair, a chunk's factors, chunkwise and recurrent states."""
    inst = make_instance(ModelKind("general"), L=7, dk=3, dv=2, seed=1)
    plan = ChunkPlan(7, 3)
    trace = forward_recurrent(inst, keep_states=True)
    _, chunk_states, _ = forward_chunkwise(inst, plan, ChunkPolicy("materialize"))
    return {
        "SeqTensor": inst.Q,
        "GateSeq": inst.gates,
        "GlaInstance": inst,
        "cumulative_log_decay": cumulative_log_decay(inst.gates.log_alpha, inst.gates.log_beta),
        "ChunkPlan": plan,
        "chunk_factors": chunk_relative_decays(inst.gates.log_alpha, inst.gates.log_beta, plan)[1],
        "ForwardTrace": trace,
        "GradBundle": backward_recurrent_exact(inst, SeqTensor(np.ones((7, 2)))),
        "chunk_states": chunk_states,
        "recurrent_states": trace.states,
    }


def _carried_arrays(x):
    """Every ndarray a record holds, through nested records and tuples."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, (list, tuple)):
        return [a for v in x for a in _carried_arrays(v)]
    if dataclasses.is_dataclass(x):
        return [a for f in dataclasses.fields(x) for a in _carried_arrays(getattr(x, f.name))]
    return []


@pytest.mark.parametrize("name", list(_records()))
def test_records_frozen_and_read_only(name):
    rec = _records()[name]
    if dataclasses.is_dataclass(rec):
        names = [f.name for f in dataclasses.fields(rec)]
    else:
        names = list(getattr(rec, "_fields", ()))  # NamedTuple; a plain list or tuple has none
    for attr in names:
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
    if name == "GradBundle":  # the gradients are held as arrays, not wrapped
        assert all(type(getattr(rec, attr)) is np.ndarray for attr in names)
    if name.endswith("_states"):  # one array of states, not a list of views
        assert type(rec) is np.ndarray
    arrays = _carried_arrays(rec)
    assert arrays or name == "ChunkPlan"
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
