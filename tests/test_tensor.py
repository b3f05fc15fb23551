"""Array primitives: pinned summation order, validation, suffix sums, frozen records."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from glakit import (ChunkPlan, ChunkPolicy, GateSeq, ModelKind, SeqTensor,
                    backward_recurrent_exact, chunk_relative_decays,
                    cumulative_log_decay, forward_chunkwise, forward_recurrent,
                    make_instance, mm, suffix_sum_arr)


def naive_matmul(a, b):
    """Triple-loop oracle, ascending k, multiply then add."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
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


def sequential_prefix(x):
    """Reference: out[t] = out[t-1] + x[t], one row at a time."""
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.shape[0]):
        out[t] = out[t - 1] + x[t]
    return out


def wide_range(rng, shape):
    """Magnitudes from 1e-8 to 1e8: any reordering of a running sum shows in the bits."""
    return rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-8, 9, shape)


@pytest.mark.parametrize("L", [1, 2, 37, 300])
def test_prefix_and_suffix_sums_are_sequential_bitwise(L):
    rng = np.random.default_rng(L)
    la, lb = -wide_range(rng, (L, 3)), -wide_range(rng, (L, 2))
    cd = cumulative_log_decay(GateSeq(la, lb))
    assert cd.log_b.tobytes() == sequential_prefix(la).tobytes()
    assert cd.log_d.tobytes() == sequential_prefix(lb).tobytes()

    x = wide_range(rng, (L, 4)) * rng.choice([-1.0, 1.0], (L, 4))
    out = suffix_sum_arr(x)
    assert out.flags.c_contiguous
    assert out.tobytes() == sequential_prefix(x[::-1])[::-1].tobytes()
    y = x.copy()
    assert suffix_sum_arr(y, out=y) is y and y.tobytes() == out.tobytes()  # in place
    if L >= 37:  # the data is order-sensitive, so the pins above discriminate
        assert not np.array_equal(sequential_prefix(x)[-1], out[0])


def test_constructors_reject_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            SeqTensor([[1.0, bad]])
        # a NaN log-gate fails no sign comparison, so finiteness is checked first
        for la, lb in (([[-1.0, bad]], [[0.0]]), ([[0.0]], [[bad]])):
            with pytest.raises(ValueError, match="non-finite"):
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
    """One instance of every record type, plus chunkwise and recurrent states."""
    inst = make_instance(ModelKind("general"), L=7, dk=3, dv=2, seed=1)
    plan = ChunkPlan(7, 3)
    cd = cumulative_log_decay(inst.gates)
    trace = forward_recurrent(inst, keep_states=True)
    _, chunk_states, _ = forward_chunkwise(inst, plan, ChunkPolicy("materialize"))
    return {
        "SeqTensor": inst.Q,
        "GateSeq": inst.gates,
        "GlaInstance": inst,
        "CumulativeDecay": cd,
        "ChunkPlan": plan,
        "ChunkDecays": chunk_relative_decays(inst.gates, plan)[1],
        "ForwardTrace": trace,
        "GradBundle": backward_recurrent_exact(inst, SeqTensor(np.ones((7, 2)))),
        "chunk_states": chunk_states,
        "recurrent_states": trace.states,
    }


def _carried_arrays(x):
    """Every ndarray a record holds, through nested records and state lists."""
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
        names = list(getattr(rec, "_fields", ()))  # NamedTuple; a state list has none
    for attr in names:
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
    arrays = _carried_arrays(rec)
    assert arrays or name == "ChunkPlan"
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
