"""Chunkwise-parallel form: inter-chunk recurrence + intra-chunk sums.

The sequence is split into chunks.  A dk x dv state is carried across
chunk boundaries exactly as in the recurrent form (amortizing the
elementwise state gating over whole chunks), while positions inside a
chunk are handled by masked weighted sums whose decay factors are exps of
sums over the chunk's own log-gates, so neither an exponent nor its
rounding grows with the sequence length.  Each pass forms a chunk's factors
once, when it reaches the chunk: the forward drops them with the chunk, and
the backward parks them in gradient rows it has not written yet, so no pass
allocates a table of every chunk's factors.  Output for chunk rows t in
[s, e):

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

Every product, intra-chunk and state alike, goes through ``mm``, one
2-D BLAS product that meters itself from its operand shapes.  BLAS may
sum in any order, so these products are not the pinned ascending-k
``tensor.mm`` of the reference forms; they are deterministic for equal
shapes and inputs, which is what the chunkwise bitwise promises rest on:
the two policies agree bit for bit, and so do repeated calls.

Each step of the paper's one generalized chunk step is one function, which
every pass that takes the step calls:

- ``_chunk``: a chunk's decay factors (unless a sweep has formed them) and
  its transforms Qt, Kt and Vt;
- ``_intra``: the masked score blocks and the within-chunk sums;
- ``_output``: the inter-chunk term ``Qt S_prev`` and the ``Ddag`` scale;
- ``_kv``: the key and value rows as they enter the outgoing state, rows
  times given factors: ``Kt (.) gamma_b`` and ``Vt (.) gamma_d`` from the
  transforms that the forward and sweep F hold;
- ``_carry``: ``(gamma_b^T gamma_d) (.) X + T``, the gated carry.  Going
  forward X is the state; going back it is the state's cotangent.

The forward calls all five per chunk (``_kv`` and ``_carry`` through
``_state_update``).  The backward is two sweeps, as in the GLA paper:
state cotangents in reverse order, then chunk states in forward order.
Sweep R is the only place the backward forms decay factors.  It parks each
chunk's daggers in that chunk's rows of dQ and of the dlog_beta buffer,
which nothing has written yet, and its log gammas in one small array of
N rows of dk + dv.  Holding no transforms, it calls ``_kv`` on K and V
with the factors ``gamma_b / Bdag`` and ``gamma_d / Ddag`` (one divide
each, no exp), and ``_carry``.  Sweep F calls all five steps, ``_chunk`` on the
parked factors and ``_intra`` once per panel; its state update reads
gamma, the daggers' last rows, so it runs before dq and O are written over
the daggers.  Once dQ, dK and dV are final, one step after the sweeps
assembles the gate gradients, as in the GLA paper's memory-efficient
dalpha and dbeta: two identities and one reverse cumulative sum over each
whole array, with no state gradient.  The backward never replays the
forward: the output O that the value-gate identity needs is re-formed
chunk by chunk from the score blocks the backward builds anyway, bit for
bit the forward's.  The two policies of the GLA paper's chunkwise training
(its section 4) decide only whether the forward returns its chunk states
(``materialize``) or not (``recompute``), and which state traffic the
CostReport books.  The backward keeps no record and runs the state
recurrence once under either policy, so both count the same flops and give
identical numbers; the materialize counters model the paper's
chunk-parallel backward, which reads S_{i-1} from the forward's record and
does not run here yet.  Every executed array op is metered with the exact
flop convention from ``cost``: products inside ``mm``, the rest at their
call sites.  ``predict_cost`` mirrors the implementation in one pass over
the chunk plan, with the state traffic in closed form, and must agree
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
from .gates import ChunkDecays, ChunkPlan, chunk_factors, outer_gate
from .gates import chunk_relative_decays, cumulative_log_decay  # noqa: F401  unused; perfbench/spans.py binds them
from .recurrent import GlaInstance, GradBundle
from .tensor import SeqTensor, readonly, suffix_sum_arr

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


def mm(a: np.ndarray, b: np.ndarray, meter: Meter) -> np.ndarray:
    """The chunk kernel's 2-D product, done by BLAS (numpy's matmul).

    Adds the product's flops to ``meter`` from the operand shapes, so no
    call site restates them.  Every chunkwise product, and only those, goes
    through this name, so a profiler can time them all by rebinding it.
    """
    meter.add_flops(mm_flops(a.shape[0], a.shape[1], b.shape[1]))
    return np.matmul(a, b)


def _row_blocks(c: int, size: int = BLOCK, start: int = 0):
    """(j0, n) per size-row block of rows [start, c): rows [j0, n) see the prefix [:n]."""
    return [(j0, min(j0 + size, c)) for j0 in range(start, c, size)]


@cache
def _upper(b: int) -> np.ndarray:
    """Read-only mask of the strict upper triangle of a b x b square."""
    return readonly(np.triu(np.ones((b, b), dtype=bool), 1))


def _causal(W: np.ndarray, j0: int) -> np.ndarray:
    """Zero the scores of rows [j0, n) against later positions of their own block."""
    W[:, j0:][_upper(W.shape[0])] = 0.0
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


def _decays(inst: GlaInstance, s: int, e: int, meter: Meter, out=None) -> ChunkDecays:
    """Chunk [s, e)'s decay factors, formed when a pass reaches it, metered; daggers in out."""
    # prefix sums (c-1)d and dagger exps cd; gamma is dagger's last row
    meter.add_flops((2 * (e - s) - 1) * (inst.dk + inst.dv))
    return chunk_factors(inst.gates, s, e, out)


_LN_DBL_MAX = float(np.log(np.finfo(np.float64).max))  # 709.78


def _name_bad_chunk(inst: GlaInstance, plan: ChunkPlan, *rows: np.ndarray) -> None:
    """Raise a ValueError naming the first chunk with a non-finite row in ``rows``.

    Called only once a result record has rejected non-finite data.  A
    chunk whose whole-chunk log-decay falls below -ln(DBL_MAX) overflows
    its within-chunk ratios K / Bdag or V / Ddag to inf; the carried state
    then spreads the damage to every later chunk, so the first bad chunk is
    where it started.
    """
    for i, (s, e) in enumerate(plan.boundaries):
        if all(np.isfinite(a[s:e]).all() for a in rows):
            continue
        dec = chunk_factors(inst.gates, s, e)
        raise ValueError(
            f"non-finite values from chunk {i} (rows {s}..{e - 1}): its whole-chunk "
            f"log-decay reaches {dec.log_gamma_b.min():.2f} on the key side and "
            f"{dec.log_gamma_d.min():.2f} on the value side, against "
            f"-ln(DBL_MAX) = {-_LN_DBL_MAX:.2f}, below which 1/decay overflows")


def _chunk(inst: GlaInstance, s: int, e: int, meter: Meter, dec=None):
    """Chunk [s, e)'s decay factors and its Qt = Q (.) Bdag, Kt = K / Bdag, Vt = V / Ddag.

    The factors are formed here unless a sweep formed them already (dec).
    """
    if dec is None:
        dec = _decays(inst, s, e, meter)
    Qt = inst.Q.data[s:e] * dec.b_dagger
    Kt = inst.K.data[s:e] / dec.b_dagger
    Vt = inst.V.data[s:e] / dec.d_dagger
    meter.add_flops(Qt.size + Kt.size + Vt.size)
    return dec, Qt, Kt, Vt


def _intra(Qt, Kt, Vt, meter: Meter, acc: np.ndarray, W=None) -> np.ndarray:
    """Within-chunk sums of the transformed output, one row block at a time, into acc.

    Given a panel's zeroed score matrix W, only the panel's rows (the last
    W.shape[0] of Qt's) are taken, and each block's scores are kept in W too.
    """
    c = Qt.shape[0]
    p0 = 0 if W is None else c - W.shape[0]
    for j0, n in _row_blocks(c, BLOCK, p0):
        Wb = _causal(mm(Qt[j0:n], Kt[:n].T, meter), j0)
        acc[j0:n] = mm(Wb, Vt[:n], meter)
        if W is not None:
            W[j0 - p0:n - p0, :n] = Wb
    return acc


def _intra_backward(Qt, Kt, Vt, dOt, meter: Meter):
    """Cotangents (dqt, dkt, dvt) of _intra given the transformed dO, plus _intra itself.

    One panel of ``PANEL`` rows at a time, last panel first: the first
    panel taken sees the whole chunk, so it assigns dkt and dvt and the
    earlier panels add to their prefixes.  The fourth result is the
    forward's within-chunk sum, bit for bit: each panel runs ``_intra`` on
    its own rows, which forms the forward's score blocks and keeps them in
    the panel's W, so the backward never replays the forward.
    """
    c, dk = Qt.shape
    dv = Vt.shape[1]
    dqt = np.empty((c, dk))
    acc = np.empty((c, dv))
    dkt = dvt = None
    for p0, p1 in reversed(_row_blocks(c, PANEL)):
        W = np.zeros((p1 - p0, p1))
        _intra(Qt[:p1], Kt[:p1], Vt[:p1], meter, acc[:p1], W)
        dvp = mm(W.T, dOt[p0:p1], meter)
        del W  # one PANEL x p1 score array at a time
        # a masked entry pairs row t with a later row, whose 1 / Ddag can
        # dwarf Ddag_t: it may overflow (quietly, under backward_chunkwise's
        # errstate), and the zeroing drops it
        G = _causal(mm(dOt[p0:p1], Vt[:p1].T, meter), p0)
        dqt[p0:p1] = mm(G, Kt[:p1], meter)
        dkp = mm(G.T, Qt[p0:p1], meter)
        del G
        if dkt is None:
            dkt, dvt = dkp, dvp
        else:
            dkt[:p1] += dkp
            dvt[:p1] += dvp
            meter.add_flops(p1 * (dk + dv))  # the two accumulating adds
    return dqt, dkt, dvt, acc


def _output(acc, Qt, S, dec, out, meter: Meter) -> None:
    """out = (acc + Qt S) (.) Ddag: a chunk's output rows from its intra sums; S None is chunk 0."""
    if S is not None:  # the inter-chunk term
        acc += mm(Qt, S, meter)
        meter.add_flops(acc.size)
    np.multiply(acc, dec.d_dagger, out=out)
    meter.add_flops(acc.size)


def _kv(Kc, Vc, fb, fd, meter: Meter):
    """Kc (.) fb and Vc (.) fd: a chunk's key and value rows as they enter its outgoing state."""
    KB = Kc * fb
    VD = Vc * fd
    meter.add_flops(KB.size + VD.size)
    return KB, VD


def _carry(dec, X, T, meter: Meter) -> np.ndarray:
    """(gamma_b^T gamma_d) (.) X + T: the gated carry of a state or of its cotangent; X None is T."""
    if X is None:
        return T
    Gm = outer_gate(dec.log_gamma_b, dec.log_gamma_d)
    meter.add_flops(2 * Gm.size + 2 * T.size)  # Gm's add + exp, gate X, add T
    return Gm * X + T


def _state_update(dec, Kt, Vt, S, meter: Meter) -> np.ndarray:
    """S_new = (gamma_b^T gamma_d) (.) S + (Kt (.) gamma_b)^T (Vt (.) gamma_d); S None is chunk 0."""
    KB, VD = _kv(Kt, Vt, dec.gamma_b, dec.gamma_d, meter)
    return _carry(dec, S, mm(KB.T, VD, meter), meter)


@np.errstate(all="ignore")
def forward_chunkwise(inst: GlaInstance, plan: ChunkPlan, policy: ChunkPolicy):
    """Run the chunkwise forward.  Returns (O, chunk states or None, CostReport)."""
    plan.check(inst.L)
    K, V = inst.K.data, inst.V.data
    meter = Meter()
    O = np.empty((inst.L, inst.dv))
    S = None
    states = [] if policy.materialize else None
    for s, e in plan.boundaries:
        dec, Qt, Kt, Vt = _chunk(inst, s, e, meter)
        _output(_intra(Qt, Kt, Vt, meter, np.empty_like(Vt)), Qt, S, dec, O[s:e], meter)
        S = _state_update(dec, Kt, Vt, S, meter)
        if states is not None:
            states.append(readonly(S))  # never written again: the next chunk rebinds S
            meter.state_writes += 1
    try:
        O = SeqTensor(O)
    except ValueError:
        _name_bad_chunk(inst, plan, O)
        raise
    return O, states, meter.report()


@np.errstate(all="ignore")
def backward_chunkwise(inst: GlaInstance, dO: SeqTensor, plan: ChunkPlan,
                       policy: ChunkPolicy):
    """Gradients of <O, dO> computed chunk by chunk.  Returns (GradBundle, CostReport).

    Two sweeps, as in the GLA paper's chunkwise backward; no full-length
    array is allocated besides the five gradients, and each chunk's decay
    factors are formed once, by the sweep that runs first.  (R) A reverse
    sweep does what needs the state cotangent dS, which reads only Q, K, V,
    dO and the gates.  At each chunk it forms the chunk's factors, parking
    the daggers in the chunk's rows of dQ and of the dlog_beta buffer and
    the log gammas in a small N x (dk + dv) array.  It writes the chunk's
    K/V path through dS into dK and dV, from rows that ``_kv`` forms from K
    and V and each row's decay to the chunk's end, gamma / Bdag (it holds no
    Kt or Vt), and it carries dS back, which is ``_carry`` as in the state
    update.  (F) A forward-order sweep then runs the state recurrence once
    and does everything that needs S_{i-1} or only the chunk itself, with
    the parked factors read as views.  It calls the forward's steps:
    ``_chunk`` for the transforms, ``_intra`` inside the panels of
    ``_intra_backward`` for the intra-chunk cotangents, ``_kv`` and
    ``_carry`` for the state update, and ``_output`` for the chunk's output
    rows O (bit for bit the forward's, re-formed from the score blocks
    rather than by replaying the forward).  It also adds the inter-chunk dq
    term and scales dq, dk and dv back; dk and dv are added onto sweep R's
    rows, or assigned on the last chunk, which sweep R gives none.  The
    state update reads gamma, the daggers' last rows, so it runs before dq
    and O are written over the daggers; O stays in the dlog_beta rows until
    the gate step.  No record of the states is kept under either policy;
    ``policy`` only picks the traffic booked per chunk: the modeled write
    of S_i and read of S_{i-1} under materialize, one state-update replay
    under recompute.  After both sweeps, with dQ, dK and dV final, the gate
    gradients are the identities dlogb = q (.) dq - k (.) dk and
    dlogd = o (.) do - v (.) dv (query term positive; the finite-difference
    oracle pins the sign), formed a chunk of rows at a time in the rows
    they end up in, and then one suffix sum over each whole array, in
    place.  dlog_alpha is allocated only then.
    """
    dOa = inst.cotangent(dO)
    plan.check(inst.L)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    L, dk, dv = inst.L, inst.dk, inst.dv
    N = plan.num_chunks

    meter = Meter()
    dQ = np.empty((L, dk))  # each chunk's b_dagger until sweep F writes the chunk's dq
    dK = np.empty((L, dk))  # sweep R writes the K/V term; sweep F adds its own rows
    dV = np.empty((L, dv))
    dlb = np.empty((L, dv))  # each chunk's d_dagger, then its O rows until the gate step
    log_gamma = np.empty((N, dk + dv))  # each chunk's log gamma_b, then log gamma_d

    # Sweep R: every chunk's decay factors, and the state cotangent's K/V
    # path and its carry, in reverse order.
    dS = None
    for i in range(N - 1, -1, -1):
        s, e = plan.boundaries[i]
        c = e - s
        dec = _decays(inst, s, e, meter, (dQ[s:e], dlb[s:e]))
        log_gamma[i, :dk] = dec.log_gamma_b
        log_gamma[i, dk:] = dec.log_gamma_d
        if i < N - 1:
            # chunk i's own K/V contribution to S_i, weighted by the carried
            # cotangent; fb and fd are each row's decay to the chunk's end
            fb = dec.gamma_b / dec.b_dagger
            fd = dec.gamma_d / dec.d_dagger
            KB, VD = _kv(K[s:e], V[s:e], fb, fd, meter)
            np.multiply(mm(VD, dS.T, meter), fb, out=dK[s:e])
            np.multiply(mm(KB, dS, meter), fd, out=dV[s:e])
            meter.add_flops(2 * c * dk + 2 * c * dv)  # fb and fd, then the scale
        if i > 0:  # dS_{i-1}: chunk i's output rows' cotangent, plus dS_i carried back
            Qt = Q[s:e] * dec.b_dagger
            dOt = dOa[s:e] * dec.d_dagger
            meter.add_flops(c * dk + c * dv)
            dS = _carry(dec, dS, mm(Qt.T, dOt, meter), meter)
    # drop sweep R's chunk temporaries (rebound, not deleted: a one-chunk
    # plan never binds fb, fd, KB, VD, Qt or dOt)
    dec = fb = fd = KB = VD = Qt = dOt = dS = None

    # Sweep F: the state recurrence, and every piece that needs S_{i-1} or
    # only the chunk itself, in forward order, on the factors sweep R parked.
    S = None
    for i, (s, e) in enumerate(plan.boundaries):
        b_dag, d_dag = dQ[s:e], dlb[s:e]
        dec, Qt, Kt, Vt = _chunk(inst, s, e, meter, ChunkDecays(
            b_dag, d_dag, log_gamma[i, :dk], log_gamma[i, dk:]))
        c = e - s
        dOt = dOa[s:e] * d_dag
        meter.add_flops(c * dv)
        dqt, dkt, dvt, Oc = _intra_backward(Qt, Kt, Vt, dOt, meter)
        if i > 0:  # dq's inter-chunk term
            dqt += mm(dOt, S.T, meter)
            meter.add_flops(c * dk)
        if i == N - 1:  # sweep R gives the last chunk no K/V term
            np.divide(dkt, b_dag, out=dK[s:e])
            np.divide(dvt, d_dag, out=dV[s:e])
        else:
            dK[s:e] += np.divide(dkt, b_dag, out=dkt)
            dV[s:e] += np.divide(dvt, d_dag, out=dvt)
            meter.add_flops(c * dk + c * dv)
        # the state update reads gamma, the daggers' last rows, so it runs
        # before O and dq are written over the daggers
        S_new = _state_update(dec, Kt, Vt, S, meter)
        _output(Oc, Qt, S, dec, dlb[s:e], meter)  # the forward's O rows, bit for bit
        np.multiply(dqt, b_dag, out=dQ[s:e])
        meter.add_flops(2 * c * dk + c * dv)
        S = S_new
        if policy.materialize:  # modeled: S_i written, S_{i-1} read back
            meter.state_writes += 1
            meter.state_reads += i > 0
        else:
            meter.recompute_passes += 1
    # drop sweep F's chunk temporaries and the parked views before dla is allocated
    del S, S_new, dec, b_dag, d_dag, Qt, Kt, Vt, dOt, dqt, dkt, dvt, Oc, log_gamma

    # Gate gradients, once dQ, dK and dV are final: the identities, a chunk
    # of rows at a time into the rows they end up in, then one suffix sum
    # over each whole array.
    dla = np.empty((L, dk))
    for s, e in plan.boundaries:
        np.multiply(Q[s:e], dQ[s:e], out=dla[s:e])
        dla[s:e] -= K[s:e] * dK[s:e]
        dlb[s:e] *= dOa[s:e]
        dlb[s:e] -= V[s:e] * dV[s:e]
    suffix_sum_arr(dla, out=dla)
    suffix_sum_arr(dlb, out=dlb)
    meter.add_flops((4 * L - 1) * (dk + dv))
    try:
        grads = GradBundle(dQ, dK, dV, dla, dlb)
    except ValueError:
        # not the gate gradients: their suffix sums carry a bad chunk back to row 0
        _name_bad_chunk(inst, plan, dQ, dK, dV)
        raise
    return grads, meter.report()


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
    backward then adds sweep F's cotangent work and sweep R, and after the
    loop the gate-gradient step: the identities 3L(dk+dv) and the two
    whole-array suffix sums (L-1)(dk+dv).  A chunk's decay factors cost
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
    both policies count the same flops.  State traffic over N chunks is
    closed form: materialize writes N states in either pass and the
    backward reads N-1 of them back, the traffic of the GLA paper's
    chunk-parallel backward, modeled rather than run; recompute writes
    none and its backward replays N state updates.
    """
    if pass_ not in ("forward", "backward"):
        raise ValueError(f"pass_ must be 'forward' or 'backward', got {pass_!r}")
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
        # row blocks (scores, then scores x values); _output's inter term, its
        # add and the Ddag scale; _state_update's Kt (.) gamma_b and
        # Vt (.) gamma_d, their product and, after the first chunk, the carry
        flops += (2 * c - 1) * d + 2 * c * dk + c * dv + A * (2 * dk - 1) + (2 * A - c) * dv
        flops += (0 if first else mm_flops(c, dk, dv) + c * dv) + c * dv
        flops += c * d + mm_flops(dk, c, dv) + (0 if first else 4 * dk * dv)
        if not backward:
            continue
        # sweep F's cotangent work: dOt, the panels' cotangent products and
        # adds, dq's inter term and its add, and dq, dk, dv scaled back
        flops += c * dv + _block_area(c, PANEL) * (4 * d - 1) - c * dk - c * d
        flops += 2 * c * dk + c * dv + (0 if first else mm_flops(c, dv, dk) + c * dk)
        if not last:  # sweep R: fb and fd, the K/V term under dS; sweep F's add onto it
            flops += 4 * c * d + mm_flops(c, dv, dk) + mm_flops(c, dk, dv)
        if not first:  # sweep R: Qt and dOt again, dS_{i-1}, and (not last) the carry of dS
            flops += c * d + mm_flops(dk, c, dv) + (0 if last else 4 * dk * dv)
    if backward:  # gate-gradient assembly: the identities, then two whole-array suffix sums
        flops += (4 * L - 1) * d

    writes = N if policy.materialize else 0
    reads = N - 1 if backward and policy.materialize else 0
    passes = N if backward and not policy.materialize else 0
    return CostReport(flops, writes, reads, passes)
