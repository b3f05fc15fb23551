"""Chunkwise-parallel form: inter-chunk recurrence + intra-chunk sums.

The sequence is split into chunks.  A dk x dv state is carried across
chunk boundaries exactly as in the recurrent form (amortizing the
elementwise state gating over whole chunks), while positions inside a
chunk are handled by masked weighted sums whose decay factors are exps of
sums over the chunk's own log-gates, so neither an exponent nor its
rounding grows with the sequence length.  Those sums, and the gate
gradients' suffix sums over the whole sequence, go through
``tensor.prefix_sum``: each column's sum stays sequential, while two fp64
columns ride in one complex128 add, with the same bits, wherever the
array is large enough to pay for it.  Each pass forms a chunk's factors
once, when it reaches the chunk: the forward forms a whole group's at once
and drops them with the group, and the backward parks them in gradient
rows it has not written yet, so no pass allocates a table of every chunk's
factors.  Output for chunk rows t in [s, e):

    o_t = [ (q_t (.) Bdag_t) S_prev  +  sum_{s<=i<=t} <q_t (.) Bdag_t, k_i / Bdag_i> (v_i / Ddag_i) ] (.) Ddag_t

and the carried state update

    S_new = (gamma_b^T gamma_d) (.) S_prev + (Kt (.) gamma_b)^T (Vt (.) gamma_d),

where row j of Kt (.) gamma_b is k_j scaled by gamma_b / Bdag_j, its decay
from row j to the chunk's end.  A chunk's factors are its daggers and
gamma only; the forward forms no array of those end-of-chunk ratios, and
the backward forms one (by a divide) only where it holds no Kt or Vt.
Each side is scaled by its gamma before the product.  Scaling the product
of the two unscaled ratios (Kt^T Vt) instead would overflow once each
side's whole-chunk log-decay passes about ln(DBL_MAX) / 2 = 355, where the
scaled rows are still finite.

Inside a chunk the forward takes the rows in blocks of ``BLOCK``.  Rows
[j0, n) are scored against the chunk prefix [:n] with one product
(``Qt[j0:n] Kt[:n]^T``), the strict upper triangle of the block's own
diagonal square is zeroed by assignment (never by multiplying with a mask,
which would turn an inf score into NaN rather than 0), and one more product
applies the scores to ``Vt[:n]``.  The block size trades the upper-triangle
work a block computes and throws away against the number of Python-level
products: at L=4096, d=64, C=64 the forward counts 111.5 M flops at
``BLOCK = 16``, under the recurrent form's 117.2 M, while 32-row blocks
(119.8 M) and whole-chunk squares (136.6 M) would count more than the
recurrence they are meant to beat.

The backward takes the rows in panels of ``PANEL`` (four blocks), last
panel first.  A panel forms the forward's own score blocks, so the output
it re-forms is the forward's bit for bit, and copies them into a
panel-wide score matrix W that is zero elsewhere.  It scores the panel's
cotangents once, ``G = dOt[p0:p1] Vt[:p1]^T`` with the same causal zeroing,
and three more products finish it: ``dq = G Kt``, ``dk += G^T Qt`` and
``dv += W^T dOt``.  Flops pick the forward's block size; calls pick the
backward's panel size.  Done in 16-row blocks, the backward would take six
products per block, 24 per 64-row chunk; a panel takes the forward's two
per block and four more, 12.  A panel counts more flops, because the
masked entries of its 64-row diagonal square are computed and thrown
away, but its larger products run faster: on a 2-vCPU x86 VM a 16x64 by
64x64 product runs at ~31 GFlop/s and a 64x64 by 64x64 one at ~63.  At
C <= 64 a chunk is one panel.

Every product, intra-chunk and state alike, goes through ``mm``: numpy's
matmul, whose operands' leading axes are a batch of 2-D BLAS products (a
batch of trials, a group's chunks, or both), metered from the operand
shapes.  BLAS may sum in any order, so these products are not the pinned
ascending-k ``tensor.mm`` of the reference forms; they are deterministic
for equal shapes and inputs, and each 2-D product of a batch is the one
an unbatched call makes, which is what the chunkwise bitwise promises
rest on: the two policies agree bit for bit, so do repeated calls, and so
do a batch's elements and their own runs.

Each step of the paper's one generalized chunk step is one function, which
every pass that takes the step calls:

- ``_chunk``: a chunk's transforms Qt, Kt and Vt, from its rows and its
  decay factors, which a pass forms with ``_decays`` from the chunk's
  log-gate rows when it reaches the chunk;
- ``_intra``: the masked score blocks and the within-chunk sums;
- ``_kv``: the key and value rows as they enter the outgoing state, rows
  times given factors: ``Kt (.) gamma_b`` and ``Vt (.) gamma_d`` from the
  transforms that the forward and sweep F hold;
- ``_scan``: the gated carry over a group's chunks, ``X_j += Gm_j (.)
  X_{j-1}`` chunk by chunk, with one gate matrix ``gamma_b^T gamma_d``
  per chunk formed for the whole group; the loop is ``gates.carry``, the
  recurrent form's own over steps.  Going forward X is the state;
  on reversed views it is the state's cotangent, carried back.  The
  inter terms ``Qt S_prev`` are the callers' own product, and a pass then
  scales the summed rows by ``Ddag``.

The forward is one raw kernel, ``_forward_raw``, on arrays whose leading
axes are a batch, and it walks the plan in groups of up to G equal-length
chunks; a ragged last chunk is a group of one.  A group's rows [s, s + Gc)
are viewed as (..., G, c, d), the chunks on axis -3 after any batch axes,
and the group makes one call of each step: ``_decays``, ``_chunk`` and
``_intra``; ``_kv``, which forms the state rows over Kt and Vt, and one
``mm`` for the state products T_k of all its chunks; one ``_scan``.  Only
the scan's carry S_k = Gm_k (.) S_{k-1} + T_k (``gates.carry``) is a
Python loop over the group's chunks, on dk x dv arrays, and then one
product adds Qt_k S_{k-1} for all of them (the sequence's first chunk
has no state entering it, so it forms no Gm and no inter term).  The
states live in one array, and the intra sums are written straight into
O's rows.  As in the GLA paper's chunkwise form, only the state pass is
sequential; the chunks' own work is independent, which is what lets a
group batch it.  ``_group_size`` picks G from per-instance bytes, a few
chunks where the sequence is long and the whole sequence where it is
short.  The steps transpose with ``swapaxes(-1, -2)``, and every op is
elementwise or a product within one batch element and one chunk, so each
element gets the bits of its own unbatched per-chunk run.
``forward_chunkwise`` is that kernel on one instance's arrays; the
causality check runs it once per group of perturbed trials.  The backward
calls the same steps in two sweeps, as in the GLA paper, over the same
groups of chunks (``_backward_group_size`` picks G from the backward's
own scratch), and then assembles the gate gradients.  Each sweep makes
one call of each step per group, and only its dk x dv scan runs chunk by
chunk, and both are ``_scan``: the state cotangent going back in sweep
R, on reversed views, and the state going forward in sweep F.
``backward_chunkwise`` states the sweeps, where they park each chunk's
factors, and the gate step.  The two policies of the GLA
paper's chunkwise training (its section 4) decide only whether the
forward returns its chunk states (``materialize``) or not
(``recompute``), and which state traffic a CostReport books;
``ChunkPolicy.report`` states that traffic once, for both passes and for
``predict_cost``.  The backward keeps no record and runs the state
recurrence once under either policy, so both count the same flops and
give identical numbers.  The meter counts flops only: every executed
array op is metered with the exact flop convention from ``cost``, products
inside ``mm``, the rest at their call sites, so a batch of B counts
B x ``predict_cost`` (``mm`` states how).  ``predict_cost`` mirrors the
implementation's flops in one pass over the chunk plan and must agree
integer-for-integer.  Both passes run under ``np.errstate(all="ignore")``:
an overflowing chunk is data the result record rejects with a ValueError
naming the chunk, whatever the caller's numpy error state (IEEE results
are the same either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cost import CostReport, Meter, mm_flops
from .gates import ChunkPlan, carry, chunk_factors, outer_gate
from .gates import chunk_relative_decays, cumulative_log_decay  # noqa: F401  unused; perfbench/spans.py binds them
from .recurrent import GlaInstance, GradBundle
from .tensor import SeqTensor, check_sizes, readonly, suffix_sum_arr

__all__ = [
    "BLOCK",
    "PANEL",
    "ChunkPolicy",
    "CostReport",
    "forward_chunkwise",
    "backward_chunkwise",
    "predict_cost",
]

_MODES = ("materialize", "recompute")

BLOCK = 16  # rows per forward block; see the module docstring for why 16
PANEL = 64  # rows per backward panel, a whole number of blocks


def mm(a: np.ndarray, b: np.ndarray, meter: Meter, out=None) -> np.ndarray:
    """The chunk kernel's product, done by BLAS (numpy's matmul).

    Adds the product's flops to ``meter`` from the operand shapes, so no
    call site restates them.  Leading axes are a batch of 2-D products: a
    batch of B m x k by k x n products counts as one Bm x k by k x n
    product, B times one product's flops.  Every other metered op of the
    chunk steps counts from array sizes, which carry the batch, so a
    forward over a batch of B counts B x ``predict_cost``.  Every chunkwise
    product, and only those, goes through this name, so a profiler can
    time them all by rebinding it.  Given out, the product is written there.
    """
    k = a.shape[-1]
    meter.flops += mm_flops(a.size // k, k, b.shape[-1])
    if out is None:  # matmul's keyword parsing would cost ~1% of a small backward
        return np.matmul(a, b)
    return np.matmul(a, b, out=out)


@cache
def _row_blocks(c: int, size: int = BLOCK, start: int = 0) -> tuple[tuple[int, int], ...]:
    """(j0, n) per size-row block of rows [start, c): rows [j0, n) see the prefix [:n]."""
    return tuple((j0, min(j0 + size, c)) for j0 in range(start, c, size))


@cache
def _upper(b: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of a b x b square."""
    return readonly(np.triu(np.ones((b, b), dtype=bool), 1))


def _causal(W: np.ndarray, j0: int) -> np.ndarray:
    """Zero the scores of rows [j0, n) against later positions of their own block."""
    np.copyto(W[..., j0:], 0.0, where=_upper(W.shape[-2]))
    return W


@dataclass(frozen=True)
class ChunkPolicy:
    """Whether the forward returns its chunk states, and which traffic a CostReport books."""

    mode: str

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"policy mode must be one of {_MODES}, got {self.mode!r}")

    @property
    def materialize(self) -> bool:
        return self.mode == "materialize"

    def report(self, flops: int, N: int, backward: bool) -> CostReport:
        """The CostReport of a pass over N chunks that counted ``flops``.

        This is the one statement of each policy's state traffic, for both
        passes and for ``predict_cost``.  Traffic counts whole dk x dv state
        matrices moved to or from the modeled slow memory; the live running
        state is not traffic.  Under materialize the forward writes the N
        chunk states it returns, and the backward books the traffic of the
        GLA paper's chunk-parallel backward (its section 4): the N writes
        and the N-1 reads of S_{i-1} back from the forward's record.  That
        backward is modeled, not run: the backward here runs the state
        recurrence once under either policy.  Under recompute nothing is
        written or read, and the backward books the N chunk state updates
        it replays.
        """
        if self.materialize:
            return CostReport(flops, N, N - 1 if backward else 0, 0)
        return CostReport(flops, 0, 0, N if backward else 0)


def _decays(la, lb, meter: Meter, out=None):
    """A chunk's chunk_factors from its log-gate rows, formed when a pass reaches it, metered.

    Given out, the daggers are formed in it.
    """
    bd, dd, lgb, lgd = factors = chunk_factors(la, lb, out)
    # prefix sums (c-1)d and dagger exps cd per batch element; gamma is dagger's last row
    meter.flops += 2 * (bd.size + dd.size) - lgb.size - lgd.size
    return factors


_LN_DBL_MAX = float(np.log(np.finfo(np.float64).max))  # 709.78


def _name_bad_chunk(inst: GlaInstance, plan: ChunkPlan, *rows: np.ndarray) -> None:
    """Raise a ValueError naming the first chunk with a non-finite row in ``rows``.

    Called only once a result record has rejected non-finite data.  A
    chunk whose whole-chunk log-decay falls below -ln(DBL_MAX) overflows
    its within-chunk ratios K / Bdag or V / Ddag to inf; the carried state
    then spreads the damage to every later chunk, so the first bad chunk is
    where it started.
    """
    _, _, _, la, lb = inst.arrays
    for i, (s, e) in enumerate(plan.boundaries):
        if all(np.isfinite(a[s:e]).all() for a in rows):
            continue
        _, _, lgb, lgd = chunk_factors(la[s:e], lb[s:e])
        raise ValueError(
            f"non-finite values from chunk {i} (rows {s}..{e - 1}): its whole-chunk "
            f"log-decay reaches {lgb.min():.2f} on the key side and "
            f"{lgd.min():.2f} on the value side, against "
            f"-ln(DBL_MAX) = {-_LN_DBL_MAX:.2f}, below which 1/decay overflows")


def _chunk(Qc, Kc, Vc, bd, dd, meter: Meter):
    """A chunk's Qt = Q (.) Bdag, Kt = K / Bdag and Vt = V / Ddag, from its rows and daggers."""
    Qt = Qc * bd
    Kt = Kc / bd
    Vt = Vc / dd
    meter.flops += Qt.size + Kt.size + Vt.size
    return Qt, Kt, Vt


def _intra(Qt, Kt, Vt, meter: Meter, acc: np.ndarray, W=None) -> np.ndarray:
    """Within-chunk sums of the transformed output, one row block at a time, into acc.

    Given a panel's zeroed score matrix W, only the panel's rows (the last
    W.shape[-2] of Qt's) are taken, and each block's scores are kept in W too.
    """
    c = Qt.shape[-2]
    p0 = 0 if W is None else c - W.shape[-2]
    KtT = Kt.swapaxes(-1, -2)
    for j0, n in _row_blocks(c, BLOCK, p0):
        rows = (..., slice(j0, n), slice(None))
        Wb = _causal(mm(Qt[rows], KtT[..., :n], meter,
                        None if W is None else W[..., j0 - p0:n - p0, :n]), j0)
        mm(Wb, Vt[..., :n, :], meter, acc[rows])
    return acc


def _intra_backward(Qt, Kt, Vt, dOt, meter: Meter):
    """Cotangents (dqt, dkt, dvt) of _intra given the transformed dO, plus _intra itself.

    One panel of ``PANEL`` rows at a time, last panel first: the first
    panel taken sees the whole chunk, so it assigns dkt and dvt and the
    earlier panels add to their prefixes.  The fourth result is the
    forward's within-chunk sum, bit for bit: each panel runs ``_intra`` on
    its own rows, which forms the forward's score blocks and keeps them in
    the panel's W, so the backward never replays the forward.  Leading
    axes are a batch, as in ``_intra``.
    """
    *lead, c, dk = Qt.shape
    dv = Vt.shape[-1]
    dqt = np.empty((*lead, c, dk))
    acc = np.empty((*lead, c, dv))
    dkt = dvt = None
    for p0, p1 in reversed(_row_blocks(c, PANEL)):
        W = np.zeros((*lead, p1 - p0, p1))
        _intra(Qt[..., :p1, :], Kt[..., :p1, :], Vt[..., :p1, :], meter, acc[..., :p1, :], W)
        dOp = dOt[..., p0:p1, :]
        dvp = mm(W.swapaxes(-1, -2), dOp, meter)
        del W  # one PANEL x p1 score array at a time
        # a masked entry pairs row t with a later row, whose 1 / Ddag can
        # dwarf Ddag_t: it may overflow (quietly, under backward_chunkwise's
        # errstate), and the zeroing drops it
        G = _causal(mm(dOp, Vt[..., :p1, :].swapaxes(-1, -2), meter), p0)
        mm(G, Kt[..., :p1, :], meter, dqt[..., p0:p1, :])
        dkp = mm(G.swapaxes(-1, -2), Qt[..., p0:p1, :], meter)
        del G
        if dkt is None:
            dkt, dvt = dkp, dvp
        else:
            dkt[..., :p1, :] += dkp
            dvt[..., :p1, :] += dvp
            meter.flops += dkp.size + dvp.size  # the two accumulating adds
    return dqt, dkt, dvt, acc


def _kv(Kc, Vc, fb, fd, meter: Meter, out=(None, None)):
    """Kc (.) fb and Vc (.) fd: key and value rows as they enter their chunk's outgoing state.

    Given out, a pair of arrays shaped like Kc and Vc, the rows are formed in them.
    """
    KB = np.multiply(Kc, fb, out=out[0])
    VD = np.multiply(Vc, fd, out=out[1])
    meter.flops += KB.size + VD.size
    return KB, VD


def _scan(lgb, lgd, X, meter: Meter) -> None:
    """The gated carry over a group's chunks, in place: X[j + 1] += Gm_j (.) X[j], chunk by chunk.

    The chunks are on axis -3, and X has one slot more than there are
    chunks: the carried matrix entering the first chunk, then each chunk's
    own term T_j.  Gm_j = gamma_b^T gamma_d comes from chunk j's log
    gammas, one ``outer_gate`` for the group, and the loop is
    ``gates.carry``.  Going forward X holds the state; on reversed views
    (the chunks and the slots taken last first) it carries the state's
    cotangent back.
    """
    Gm = outer_gate(lgb, lgd)
    carry(Gm, X)
    meter.flops += 4 * Gm.size  # an add and an exp per gate entry; gate X, add T


# A group's chunks share one call of each step, so a few groups amortize
# the Python-level cost of the steps better than many chunks do, while the
# group's temporaries (its daggers, transforms and inter term, about three
# times its rows of K and V) grow with it.  A group's rows of K and V take
# at most an eighth of the whole sequence's K and V, clamped to
# [_GROUP_MIN_BYTES, _GROUP_MAX_BYTES].  Forward time against G, relative
# to a forward that calls each step once per chunk, on a 2-vCPU x86 VM with
# 2 BLAS threads (recompute, median of interleaved rounds of fastest-of-10):
#   L=4096, dk=dv=64, C=64:  G=1 1.07, 2 0.87, 3 0.82, 4 0.79, 6 0.76, 8 0.87
#   L=4096, dk=dv=8,  C=64:  G=1 1.18, 2 0.72, 4 0.50, 8 0.38, 16 0.37
#   L=16,   dk=dv=8,  C=8:   G=1 1.36, 2 (the whole sequence) 0.87
# A group of one costs more than a chunk of that forward, so the floor makes
# a short sequence one group; the ceiling keeps the long wide sequence at
# four chunks, before larger groups slow it again; the eighth keeps the
# forward's peak under 2.5 O-sized arrays at L=1024, dk=dv=16, C=64 (two
# chunks per group).
_GROUP_MIN_BYTES = 32 * 1024
_GROUP_MAX_BYTES = 256 * 1024

# The backward's groups hold more scratch than the forward's: sweep F keeps
# about a dozen group-sized arrays alive at once (the transforms, dOt, the
# panel's cotangents and scores), so its peak grows with G c / L over the
# ~5.1 O-sized arrays (L dv 8 bytes) of a backward with one chunk per
# group.  A backward group holds at most a sixteenth of the sequence's rows
# and no more chunks than the forward's.  Backward peak against G, in
# O-sized arrays:
#   L=1024, dk=dv=16, C=64:  G=1 5.08, 2 5.61, 4 7.14
#   L=4096, dk=dv=8,  C=64:  G=1 5.02, 2 5.02, 4 5.06, 8 6.06, 16 8.08
# and backward time against G, relative to a backward that calls each step
# once per chunk (same VM and threads, recompute, median of 6-8
# interleaved rounds of fastest-of-5 to -300):
#   L=4096, dk=dv=64, C=64:  G=1 1.05, 2 0.94, 3 0.92, 4 0.85, 6 0.85, 8 0.89
#   L=4096, dk=dv=8,  C=64:  G=1 1.08, 2 0.73, 4 0.56, 8 0.46, 16 0.43
#   L=1024, dk=dv=16, C=64:  G=1 1.07, 2 0.80, 4 0.64
#   L=16,   dk=dv=8,  C=8:   G=1 1.13, 2 (the whole sequence) 0.87
# Groups pay wherever the peak allows them.  The sixteenth keeps two shapes
# at one chunk per group: L=1024, d=16, whose peak is bounded by 5.6, and
# L=16, d=8, C=8, whose whole peak is ~18 KB, to which a group of two adds
# 4.5 KB.
_BACKWARD_GROUP_SHARE = 16


def _group_size(L: int, dk: int, dv: int, c: int) -> int:
    """Chunks of c rows per group in a forward over L rows, from per-instance bytes."""
    budget = max(_GROUP_MIN_BYTES, min(_GROUP_MAX_BYTES, L * (dk + dv)))
    return max(1, budget // (8 * c * (dk + dv)))


def _backward_group_size(L: int, dk: int, dv: int, c: int) -> int:
    """Chunks of c rows per group in a backward over L rows: at most a sixteenth of the rows."""
    return max(1, min(L // (_BACKWARD_GROUP_SHARE * c), _group_size(L, dk, dv, c)))


@cache
def _groups(L: int, c: int, G: int) -> tuple[tuple[int, int, int, int], ...]:
    """(k0, k1, s, c) per group of a plan of c-row chunks over L rows.

    A group is chunks [k0, k1) of c rows each, from row s: up to G
    consecutive chunks of the plan's length; a ragged last chunk is a group
    of one.
    """
    full = L // c
    groups = tuple((k0, min(k0 + G, full), k0 * c, c) for k0 in range(0, full, G))
    return groups + (((full, full + 1, full * c, L - full * c),) if full * c < L else ())


def _rows(X, s: int, g: int, c: int) -> np.ndarray:
    """X's rows [s, s + g c) as a view (..., g, c, d): a group's chunks on axis -3."""
    return X[..., s:s + g * c, :].reshape(*X.shape[:-2], g, c, X.shape[-1])


def _forward_raw(Q, K, V, la, lb, plan: ChunkPlan, materialize: bool):
    """The chunkwise forward on raw arrays, leading axes a batch, one group of chunks at a time.

    Returns (O, chunk states or None, flops); nothing is validated.  Each
    batch element, and each chunk of a group, gets the bits of its own
    unbatched per-chunk run.  The states live in one array St: under
    materialize slot k is the state leaving chunk k, and the record is St
    itself, read-only, (..., N, dk, dv) with the chunks on axis -3 after
    any batch axes; under recompute it holds one group, slot 0 being the
    state entering the group and slot j the one leaving its chunk j - 1.
    O and St are fp64 whatever the inputs' dtype: the products run in BLAS.
    """
    meter = Meter()
    *batch, L, dk = Q.shape
    dv = V.shape[-1]
    G = _group_size(L, dk, dv, plan.boundaries[0][1])
    O = np.empty((*batch, L, dv))
    St = np.empty((*batch, plan.num_chunks if materialize else min(G, plan.num_chunks) + 1,
                   dk, dv))
    for k0, k1, s, c in _groups(L, plan.boundaries[0][1], G):
        g = k1 - k0
        f = 1 if k0 == 0 else 0  # the sequence's first chunk has no state entering it
        a = k0 if materialize else 1  # the St slot of the state leaving chunk k0
        bd, dd, lgb, lgd = _decays(_rows(la, s, g, c), _rows(lb, s, g, c), meter)
        Qt, Kt, Vt = _chunk(_rows(Q, s, g, c), _rows(K, s, g, c), _rows(V, s, g, c), bd, dd, meter)
        acc = _intra(Qt, Kt, Vt, meter, _rows(O, s, g, c))
        # T_k = (Kt (.) gamma_b)^T (Vt (.) gamma_d) over Kt and Vt, in the
        # slot of the state that chunk k leaves
        KB, VD = _kv(Kt, Vt, bd[..., -1:, :], dd[..., -1:, :], meter, (Kt, Vt))
        mm(KB.swapaxes(-1, -2), VD, meter, St[..., a:a + g, :, :])
        del Kt, Vt, KB, VD  # freed before the inter term's temporaries
        if g > f:  # the scan, then the inter terms Qt_k S_{k-1} in one product
            S = St[..., a + f - 1:a + g, :, :]
            _scan(lgb[..., f:, :], lgd[..., f:, :], S, meter)
            acc[..., f:, :, :] += mm(Qt[..., f:, :, :], S[..., :-1, :, :], meter)
            meter.flops += acc[..., f:, :, :].size
        np.multiply(acc, dd, out=acc)  # O's rows: the Ddag scale
        meter.flops += acc.size
        if not materialize:
            St[..., 0, :, :] = St[..., g, :, :]
    if not materialize:
        return O, None, meter.flops
    return O, readonly(St), meter.flops  # the record: never written again


@np.errstate(all="ignore")
def forward_chunkwise(inst: GlaInstance, plan: ChunkPlan, policy: ChunkPolicy):
    """Run the chunkwise forward.  Returns (O, chunk states or None, CostReport).

    The chunk states, under materialize, are one read-only (N, dk, dv)
    array: slot k is the state leaving chunk k.
    """
    plan.check(inst.L)
    O, states, flops = _forward_raw(*inst.arrays, plan, policy.materialize)
    try:
        O = SeqTensor(O)
    except ValueError:
        _name_bad_chunk(inst, plan, O)
        raise
    return O, states, policy.report(flops, plan.num_chunks, False)


@np.errstate(all="ignore")
def backward_chunkwise(inst: GlaInstance, dO: SeqTensor, plan: ChunkPlan,
                       policy: ChunkPolicy):
    """Gradients of <O, dO> computed a group of chunks at a time.  Returns (GradBundle, CostReport).

    Two sweeps, as in the GLA paper's chunkwise backward, each over the
    forward's groups of up to G equal-length chunks (a ragged last chunk is
    a group of one; ``_backward_group_size`` picks G from the backward's
    own scratch).  Each sweep calls each step once per group, on the
    group's rows viewed as (g, c, d), and only its dk x dv scan runs chunk
    by chunk.  No full-length array is allocated besides the five
    gradients, and each chunk's decay factors are formed once, by the sweep
    that runs first.  (R) A reverse sweep, last group first, does what
    needs the state cotangent dS, which reads only Q, K, V, dO and the
    gates.  It forms the group's factors, parking the daggers in the
    group's rows of dQ and of the dlog_beta buffer, which nothing has
    written yet, and the log gammas in a small N x (dk + dv) array.  It
    forms the products Qt^T dOt of the chunks that a state enters, then
    scans dS back through them with ``_scan`` on the group's log gammas
    and slots taken last first, and then writes every chunk's K/V path
    through its dS into dK and dV at once, from rows that ``_kv`` forms from K and
    V and each row's decay to the chunk's end, gamma / Bdag (one divide
    per side, no exp; it holds no Kt or Vt).  (F) A forward-order sweep
    then runs the state recurrence once and does everything that needs
    S_{j-1} or only the group itself, with the parked factors read as
    views.  It calls the forward's steps: ``_chunk`` for the transforms,
    ``_intra`` inside the panels of ``_intra_backward`` for the
    intra-chunk cotangents, ``_kv`` and one product for the state rows, and
    ``_scan``, the forward's state scan, whose states give the inter terms
    of O's rows (bit for bit the forward's, re-formed from the score blocks
    rather than by replaying the forward) and of dq.  It scales dq, dk and
    dv back; dk and dv are added onto sweep R's rows, or assigned on the
    sequence's last chunk, which sweep R gives none.  The state rows read
    gamma, the daggers' last rows, so they are formed before O and dq are
    written over the daggers.  Once dV's rows are final, O's rows go over
    d_dagger and become dlog_beta's identity rows there, so the dlog_beta
    buffer holds d_dagger, then those rows, and never O across phases.
    Both scans carry their dk x dv arrays in min(G, N) + 1 slots, and each
    group's temporaries are freed before the next group's.  No record of
    the states is kept under either policy, and neither sweep reads
    ``policy``: it picks only the state traffic of the returned
    CostReport, which ``ChunkPolicy.report`` states.  The gate gradients
    come as in the GLA paper's memory-efficient dalpha and dbeta, with no
    state gradient, from the identities
    dlogb = q (.) dq - k (.) dk and dlogd = o (.) do - v (.) dv (query term
    positive; the finite-difference oracle pins the sign), each formed in
    the rows it ends up in: dlogd's by sweep F, and dlogb's, a chunk of rows
    at a time, by the gate step after both sweeps, once dQ and dK are
    final.  The gate step then takes one suffix sum over each whole array,
    in place.  dlog_alpha is allocated only then.
    """
    dOa = inst.cotangent(dO)
    plan.check(inst.L)
    Q, K, V, la, lb = inst.arrays
    L, dk, dv = inst.L, inst.dk, inst.dv
    N = plan.num_chunks
    G = _backward_group_size(L, dk, dv, plan.boundaries[0][1])
    groups = _groups(L, plan.boundaries[0][1], G)

    meter = Meter()
    dQ = np.empty((L, dk))  # each chunk's b_dagger until sweep F writes the chunk's dq
    dK = np.empty((L, dk))  # sweep R writes the K/V term; sweep F adds its own rows
    dV = np.empty((L, dv))
    dlb = np.empty((L, dv))  # each chunk's d_dagger until sweep F writes its identity rows
    log_gamma = np.empty((N, dk + dv))  # each chunk's log gamma_b, then log gamma_d
    # the two scans' dk x dv slots: slot j + 1 holds what belongs to the
    # state leaving a group's chunk j (dS in sweep R, S in sweep F), and
    # slot 0 to the state entering the group
    X = np.empty((min(G, N) + 1, dk, dv))

    # Sweep R: every group's decay factors, and the state cotangent's K/V
    # path and its scan, last group first.
    for k0, k1, s, c in reversed(groups):
        g = k1 - k0
        e = s + g * c
        f = 1 if k0 == 0 else 0  # the sequence's first chunk has no state entering it
        n = g - (k1 == N)  # the chunks whose leaving state has a cotangent: not the last
        bd, dd, lgb, lgd = _decays(la[s:e].reshape(g, c, -1), lb[s:e].reshape(g, c, -1), meter,
                                   (dQ[s:e].reshape(g, c, -1), dlb[s:e].reshape(g, c, -1)))
        log_gamma[k0:k1, :dk], log_gamma[k0:k1, dk:] = lgb, lgd
        if n == g:  # dS of the state leaving the group, where the later group left it
            X[g] = X[0]
        if g > f:
            # T_j = Qt_j^T dOt_j, chunk j's output rows' cotangent of the
            # state entering them, into slot j; then the scan, on the
            # chunks and slots taken later chunk first: dS_{j-1} = Gm_j (.) dS_j + T_j
            Qt = Q[s:e].reshape(g, c, -1)[f:] * bd[f:]
            dOt = dOa[s:e].reshape(g, c, -1)[f:] * dd[f:]
            meter.flops += Qt.size + dOt.size
            mm(Qt.swapaxes(-1, -2), dOt, meter, X[f:g])
            if n > f:
                _scan(lgb[f:n][::-1], lgd[f:n][::-1], X[f:n + 1][::-1], meter)
        if n:
            # chunk j's own K/V contribution to S_j, weighted by dS_j; fb
            # and fd are each row's decay to the chunk's end
            en = s + n * c
            fb = bd[:n, -1:] / bd[:n]
            fd = dd[:n, -1:] / dd[:n]
            KB, VD = _kv(K[s:en].reshape(n, c, -1), V[s:en].reshape(n, c, -1), fb, fd, meter)
            dS = X[1:n + 1]
            np.multiply(mm(VD, dS.swapaxes(-1, -2), meter), fb, out=dK[s:en].reshape(n, c, -1))
            np.multiply(mm(KB, dS, meter), fd, out=dV[s:en].reshape(n, c, -1))
            meter.flops += 2 * fb.size + 2 * fd.size  # fb and fd, then the scale
    # drop sweep R's group temporaries (rebound, not deleted: a one-chunk
    # plan never binds fb, fd, KB, VD, dS, Qt or dOt)
    bd = dd = lgb = lgd = fb = fd = KB = VD = dS = Qt = dOt = None

    # Sweep F: the state scan, and every piece that needs S_{j-1} or only
    # the group itself, in forward order, on the factors sweep R parked.
    for k0, k1, s, c in groups:
        g = k1 - k0
        e = s + g * c
        f = 1 if k0 == 0 else 0
        n = g - (k1 == N)
        bd, dd = dQ[s:e].reshape(g, c, -1), dlb[s:e].reshape(g, c, -1)
        Qt, Kt, Vt = _chunk(Q[s:e].reshape(g, c, -1), K[s:e].reshape(g, c, -1),
                            V[s:e].reshape(g, c, -1), bd, dd, meter)
        dOt = dOa[s:e].reshape(g, c, -1) * dd
        meter.flops += dOt.size
        dqt, dkt, dvt, acc = _intra_backward(Qt, Kt, Vt, dOt, meter)
        # dk and dv scaled back, onto sweep R's rows, or assigned in the
        # sequence's last chunk, which sweep R gives none
        dKg, dVg = dK[s:e].reshape(g, c, -1), dV[s:e].reshape(g, c, -1)
        if n:
            dKg[:n] += np.divide(dkt[:n], bd[:n], out=dkt[:n])
            dVg[:n] += np.divide(dvt[:n], dd[:n], out=dvt[:n])
            meter.flops += n * c * (dk + dv)
        if n < g:
            np.divide(dkt[n:], bd[n:], out=dKg[n:])
            np.divide(dvt[n:], dd[n:], out=dVg[n:])
        # the state rows read gamma from the daggers, so they come before
        # the forward's O rows, bit for bit, are written over d_dagger
        KB, VD = _kv(Kt, Vt, bd[:, -1:], dd[:, -1:], meter, (Kt, Vt))
        mm(KB.swapaxes(-1, -2), VD, meter, X[1:g + 1])
        del Kt, Vt, KB, VD
        if g > f:  # the scan, then the inter terms of O and of dq
            _scan(log_gamma[k0 + f:k1, :dk], log_gamma[k0 + f:k1, dk:], X[f:g + 1], meter)
            acc[f:] += mm(Qt[f:], X[f:g], meter)
            dqt[f:] += mm(dOt[f:], X[f:g].swapaxes(-1, -2), meter)
            meter.flops += acc[f:].size + dqt[f:].size
        # O's rows over d_dagger, then dlog_beta's identity o (.) do - v (.) dv
        # in their place, now that dV's rows are final
        np.multiply(acc, dd, out=dd)
        dd *= dOa[s:e].reshape(g, c, -1)
        dd -= V[s:e].reshape(g, c, -1) * dVg
        meter.flops += 4 * acc.size
        np.multiply(dqt, bd, out=bd)
        meter.flops += dqt.size + dkt.size + dvt.size  # dq, dk and dv scaled back
        X[0] = X[g]
        del Qt, dOt, dqt, dkt, dvt, acc, dKg, dVg  # freed before the next group's
    del X, bd, dd, log_gamma  # and the parked views, before dla is allocated

    # The gate step, once dQ and dK are final: dlog_alpha's identity, a
    # chunk of rows at a time into the rows it ends up in, then one suffix
    # sum over each whole array.
    dla = np.empty((L, dk))
    for s, e in plan.boundaries:
        np.multiply(Q[s:e], dQ[s:e], out=dla[s:e])
        dla[s:e] -= K[s:e] * dK[s:e]
    suffix_sum_arr(dla, out=dla)
    suffix_sum_arr(dlb, out=dlb)
    meter.flops += 3 * L * dk + (L - 1) * (dk + dv)
    try:
        grads = GradBundle(dQ, dK, dV, dla, dlb)
    except ValueError:
        # not the gate gradients: their suffix sums carry a bad chunk back to row 0
        _name_bad_chunk(inst, plan, dQ, dK, dV)
        raise
    return grads, policy.report(meter.flops, N, True)


def _block_area(c: int, size: int = BLOCK) -> int:
    """Sum over the size-row blocks of a c-row chunk of block rows x prefix length."""
    q, r = divmod(c, size)
    return size * size * q * (q + 1) // 2 + r * c


def predict_cost(L: int, dk: int, dv: int, plan: ChunkPlan, policy: ChunkPolicy,
                 pass_: str = "forward") -> CostReport:
    """Closed-form counters for forward_chunkwise / backward_chunkwise.

    Pure arithmetic over the plan; never executes the kernels.  The
    instrumented runs must reproduce these numbers exactly.  One pass over
    the chunks sums each phase's flops.  Each chunk's step is stated once,
    for the forward and for the backward's sweep F, which takes it too; the
    backward then adds sweep F's cotangent work, which ends with
    dlog_beta's identity 3c dv, and sweep R, and after the loop the gate
    step: dlog_alpha's identity 3L dk and the two whole-array suffix sums
    (L-1)(dk+dv).  A chunk's decay factors cost
    (2c-1)(dk+dv), and each pass forms them once: the forward when it
    reaches the chunk, the backward in sweep R, which parks them for sweep
    F and, for every chunk but the last, also divides gamma by the
    daggers, c(dk+dv).  Per chunk of c rows with A = _block_area(c), the
    row blocks' products sum to A(2dk-1) + (2A-c)dv (scores, then scores x
    values).  The backward's panels form the same blocks and, with
    P = _block_area(c, PANEL), add P(4dk+4dv-1) - c dk - c(dk+dv): the
    cotangent scores P(2dv-1), dq (2P-c)dk, dk and dv (2P-p)(dk+dv) and
    their adds (p-c)(dk+dv), where p sums the panels' prefix lengths and
    cancels.  A panel's masked entries are counted like any other, so
    panels count more flops than 16-row blocks would, in fewer calls.
    The backward runs the state recurrence once under either policy, so
    both policies count the same flops.  The state traffic comes from
    ``ChunkPolicy.report``, as it does for the instrumented passes.
    """
    if pass_ not in ("forward", "backward"):
        raise ValueError(f"pass_ must be 'forward' or 'backward', got {pass_!r}")
    check_sizes(dk=dk, dv=dv)
    plan.check(L)
    N = plan.num_chunks
    backward = pass_ == "backward"
    d = dk + dv

    flops = 0
    for i, (s, e) in enumerate(plan.boundaries):
        c = e - s
        A = _block_area(c)
        first, last = i == 0, i == N - 1
        # the chunk step, in the forward and in the backward's sweep F:
        # _chunk's decays (prefix sums and dagger; in the backward, sweep R
        # forms them and sweep F reads them) and Qt, Kt, Vt; _intra's
        # row blocks (scores, then scores x values); after the first chunk,
        # _scan's inter-term product and add; the Ddag scale; _kv's
        # Kt (.) gamma_b and Vt (.) gamma_d, their product and, after the
        # first chunk, _scan's gate matrix and carry
        flops += (2 * c - 1) * d + 2 * c * dk + c * dv + A * (2 * dk - 1) + (2 * A - c) * dv
        flops += (0 if first else mm_flops(c, dk, dv) + c * dv) + c * dv
        flops += c * d + mm_flops(dk, c, dv) + (0 if first else 4 * dk * dv)
        if not backward:
            continue
        # sweep F's cotangent work: dOt, the panels' cotangent products and
        # adds, dq's inter term and its add, dq, dk, dv scaled back, and
        # dlog_beta's identity o (.) do - v (.) dv
        flops += c * dv + _block_area(c, PANEL) * (4 * d - 1) - c * dk - c * d
        flops += 2 * c * dk + 4 * c * dv + (0 if first else mm_flops(c, dv, dk) + c * dk)
        if not last:  # sweep R: fb and fd, the K/V term under dS; sweep F's add onto it
            flops += 4 * c * d + mm_flops(c, dv, dk) + mm_flops(c, dk, dv)
        if not first:  # sweep R: Qt and dOt again, dS_{i-1}, and (not last) the carry of dS
            flops += c * d + mm_flops(dk, c, dv) + (0 if last else 4 * dk * dv)
    if backward:  # the gate step: dlog_alpha's identity, then two whole-array suffix sums
        flops += 3 * L * dk + (L - 1) * d

    return policy.report(flops, N, backward)
