"""The splitmix64 stream, pinned independently of the library's block draw."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glakit import ModelKind, SplitMix64, make_instance
from glakit.checks import _draw_trials
from glakit.fixtures import _BLOCK

MASK = (1 << 64) - 1


class ScalarSplitMix64:
    """Reference oracle: the textbook one-step-at-a-time splitmix64."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def fill_pm1(self, rows, cols):
        a = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                a[i, j] = 2.0 * self.uniform() - 1.0
        return a

    def fill_log_gate(self, rows, cols, log_floor):
        a = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                a[i, j] = self.uniform() * log_floor
        return a


@pytest.mark.parametrize("cls", [SplitMix64, ScalarSplitMix64])
def test_known_answers_seed_0(cls):
    rng = cls(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_dims = st.integers(0, 6)
_calls = st.lists(st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("fill_pm1"), _dims, _dims),
    st.tuples(st.just("fill_log_gate"), _dims, _dims,
              st.floats(min_value=math.log(1e-300), max_value=0.0)),
), max_size=8)


@settings(deadline=None)
@given(seed=st.integers(0, MASK), calls=_calls)
def test_block_draws_match_scalar_reference(seed, calls):
    lib, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for name, *args in calls:
        got, want = getattr(lib, name)(*args), getattr(ref, name)(*args)
        if name == "next_u64":
            assert type(got) is int and got == want
        else:
            assert same_bytes(got, want)
        assert lib.state == ref.state


def test_fills_spanning_blocks_match_scalar_reference():
    # several whole blocks and a ragged last one, then a stream that
    # continues from a mid-block state
    rows, cols = 3, _BLOCK + 1
    lib, ref = SplitMix64(2**63 + 5), ScalarSplitMix64(2**63 + 5)
    assert same_bytes(lib.fill_pm1(rows, cols), ref.fill_pm1(rows, cols))
    assert same_bytes(lib.fill_log_gate(cols, 2, -3.5), ref.fill_log_gate(cols, 2, -3.5))
    assert lib.next_u64() == ref.next_u64()
    assert lib.state == ref.state


@settings(deadline=None)
@given(seed=st.integers(0, MASK), L=st.integers(2, 24), dk=st.integers(1, 5),
       dv=st.integers(1, 5), trials=st.integers(1, 8))
def test_causality_group_draw_matches_per_trial_fills(seed, L, dk, dv, trials):
    # the causality check draws a group of trials in one fill: each trial's
    # cut and five tails must have the bytes of its own next_u64 and five
    # fills, no row before the cut may change, and the stream must end
    # where those calls leave it
    lib, ref = SplitMix64(seed), SplitMix64(seed)
    into = [np.full((trials, L, w), np.nan) for w in (dk, dk, dv, dk, dv)]
    cuts = _draw_trials(lib, into)
    assert len(cuts) == trials
    for b, cut in enumerate(cuts):
        assert cut == 1 + ref.next_u64() % (L - 1)
        n = L - cut
        want = (ref.fill_pm1(n, dk), ref.fill_pm1(n, dk), ref.fill_pm1(n, dv),
                ref.fill_log_gate(n, dk, np.log(0.5)), ref.fill_log_gate(n, dv, np.log(0.5)))
        for X, w in zip(into, want, strict=True):
            assert same_bytes(X[b, cut:], w) and np.isnan(X[b, :cut]).all()
    assert lib.state == ref.state
    assert lib.next_u64() == ref.next_u64()


# sha256 over Q, K, V, log_alpha, log_beta bytes, recorded from the scalar
# generator before the block draw replaced it; the last three, which span
# many fill blocks, from the whole-array draw before fills went in place.
PINNED = [
    (("general", 33, 5, 3, 2025, 0.05),
     "e2f923cd2392d40c41902becdeddb633d7f7ed31438bfa86a723e8183ca31ff6"),
    (("gla_beta_one", 1, 1, 1, 2**64 - 1, 1e-300),
     "420a3f396831854bdd9d85eed1a66a23a945790bf9d6cea6d0049fb5ba6bbc15"),
    (("retnet", 8, 2, 4, 0, 0.5),
     "7ad3869680e6f309f4268adf5bbb9ab24f109f5986a5496a0944b81f16192604"),
    (("vanilla", 4, 3, 2, 7, 0.5),
     "2f7b8c77c45f225ad1190c99b4d2726f0313bf5a4236944401d96081ffd49386"),
    (("general", 64, 16, 8, 2**64 - 1, 1e-12),
     "24589cf15714aebbe2b2fb2c6ea561c08b7731d45768d3e3c86ecd398ec422c1"),
    (("general", 1237, 29, 31, 99, 0.05),
     "5243327d2053719f31a45914d63f2111cad1e13be1ab3772a5ad923770a1eb88"),
    (("general", 4096, 64, 64, 1, 0.5),
     "8d0153091d53f64d6060f3bae77434bca28bba46ecb6251619129ce9f5a44cde"),
    (("gla_beta_one", 3001, 7, 5, 2**64 - 1, 1e-300),
     "a05bd0b735c5f25e59381eaeca900ee3f5db2ff60423c9b84905f794879a1a12"),
]


@pytest.mark.parametrize("case,digest", PINNED, ids=[f"{c[0]}-L{c[1]}" for c, _ in PINNED])
def test_make_instance_bytes_pinned(case, digest):
    kind, L, dk, dv, seed, floor = case
    inst = make_instance(ModelKind(kind), L, dk, dv, seed, floor)
    h = hashlib.sha256()
    for a in (inst.Q.data, inst.K.data, inst.V.data,
              inst.gates.log_alpha, inst.gates.log_beta):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_make_instance_allocates_only_its_outputs():
    # draws are mixed in a block-sized scratch and written into the five
    # returned arrays; the budget leaves room for that scratch and the
    # records' finiteness checks, not for full-length temporaries
    L, d = 4096, 64
    outputs = 5 * L * d * 8
    make_instance(ModelKind("general"), L, d, d, seed=1)
    tracemalloc.start()
    try:
        make_instance(ModelKind("general"), L, d, d, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= outputs + 0.5 * 2**20, (peak - outputs) / 2**20
