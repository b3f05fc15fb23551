"""Chunkwise-parallel form: inter-chunk recurrence + intra-chunk sums.

The sequence is split into chunks.  A dk x dv state is carried across
chunk boundaries exactly as in the recurrent form (amortizing the
elementwise state gating over whole chunks), while positions inside a
chunk are handled by masked weighted sums whose decay factors are exps of
sums over the chunk's own log-gates, so neither an exponent nor its
rounding grows with the sequence length.  Each pass forms a chunk's factors
when it reaches the chunk and drops them with it; no pass holds a table of
every chunk's factors.  Output for chunk rows t in [s, e):

    o_t = [ (q_t (.) Bdag_t) S_prev  +  sum_{s<=i<=t} <q_t (.) Bdag_t, k_i / Bdag_i> (v_i / Ddag_i) ] (.) Ddag_t

and the carried state update

    S_new = (gamma_b^T gamma_d) (.) S_prev + (Bpri (.) K)^T (Dpri (.) V).

Inside a chunk the rows are taken in blocks of ``BLOCK``.  Rows [j0, n)
are scored against the chunk prefix [:n] with one product
(``Qt[j0:n] Kt[:n]^T``), the strict upper triangle of the block's own
diagonal square is zeroed by assignment (never by multiplying with a mask,
which would turn an inf score into NaN rather than 0), and one more product
applies the scores to ``Vt[:n]``.  The backward forms the same score
blocks, adds ``dOt Vt^T`` and accumulates ``dk += G^T Qt`` and
``dv += W^T dOt``.  The block size trades the upper-triangle work a block
computes and throws away against the number of Python-level products: at
L=4096, d=64, C=64 the forward counts 112.5 M flops at ``BLOCK = 16``,
under the recurrent form's 117.2 M, while 32-row blocks (120.9 M) and
whole-chunk squares (137.6 M) would count more than the recurrence they
are meant to beat.

Every product, intra-chunk and state alike, goes through ``mm``, one
2-D BLAS product that meters itself from its operand shapes.  BLAS may
sum in any order, so these products are not the pinned ascending-k
``tensor.mm`` of the reference forms; they are deterministic for equal
shapes and inputs, which is what the chunkwise bitwise promises rest on:
the two policies agree bit for bit, and so do repeated calls.

The backward is two sweeps, as in the GLA paper: chunk states in forward
order, state cotangents in reverse order.  It never replays the forward:
the output O that the value-gate identity needs is re-formed chunk by
chunk from the score blocks the backward builds anyway, bit for bit the
forward's.  Two scheduling policies are modeled: ``materialize`` records
every chunk state to slow memory in the forward-order sweep and reads
S_{i-1} back from the record (chunk-parallel backward); ``recompute``
stores nothing and uses the live state of that sweep's recurrence.
Either way the backward runs the recurrence once, so both count the same
flops and produce identical numbers; they differ only in the state
traffic of the CostReport.  Every executed array op is metered with
the exact flop convention from ``cost``: products inside ``mm``, the
rest at their call sites.  ``predict_cost`` mirrors the implementation in
one pass over the chunk plan, with the state traffic in closed form, and
must agree integer-for-integer.
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
    "ChunkPolicy",
    "CostReport",
    "forward_chunkwise",
    "backward_chunkwise",
    "predict_cost",
]

_MODES = ("materialize", "recompute")

BLOCK = 16  # rows per intra-chunk block; see the module docstring for why 16


def mm(a: np.ndarray, b: np.ndarray, meter: Meter) -> np.ndarray:
    """The chunk kernel's 2-D product, done by BLAS (numpy's matmul).

    Adds the product's flops to ``meter`` from the operand shapes, so no
    call site restates them.  Every chunkwise product, and only those, goes
    through this name, so a profiler can time them all by rebinding it.
    """
    meter.add_flops(mm_flops(a.shape[0], a.shape[1], b.shape[1]))
    return np.matmul(a, b)


def _row_blocks(c: int):
    """(j0, n) per row block of a c-row chunk: rows [j0, n) see the prefix [:n]."""
    return [(j0, min(j0 + BLOCK, c)) for j0 in range(0, c, BLOCK)]


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
    mode: str

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"policy mode must be one of {_MODES}, got {self.mode!r}")

    @property
    def materialize(self) -> bool:
        return self.mode == "materialize"


def _decays(inst: GlaInstance, s: int, e: int, meter: Meter) -> ChunkDecays:
    """Chunk [s, e)'s decay factors, formed when a sweep reaches it, metered."""
    # prefix sums (c-1)d, dagger exps cd, prime subtracts and exps 2cd
    meter.add_flops((4 * (e - s) - 1) * (inst.dk + inst.dv))
    return chunk_factors(inst.gates, s, e)


def _check_plan(inst: GlaInstance, plan: ChunkPlan) -> None:
    if plan.L != inst.L:
        raise ValueError(f"plan covers L={plan.L} but the instance has L={inst.L}")


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


def _intra(Qt, Kt, Vt, meter: Meter) -> np.ndarray:
    """Within-chunk sums of the transformed output, one row block at a time."""
    c = Qt.shape[0]
    acc = np.empty((c, Vt.shape[1]))
    for j0, n in _row_blocks(c):
        W = _causal(mm(Qt[j0:n], Kt[:n].T, meter), j0)
        acc[j0:n] = mm(W, Vt[:n], meter)
    return acc


def _intra_backward(Qt, Kt, Vt, dOt, meter: Meter):
    """Cotangents (dqt, dkt, dvt) of _intra given the transformed dO, plus _intra itself.

    The fourth result is the forward's within-chunk sum, bit for bit: each
    block's scores are the forward's, so one more product with ``Vt`` gives
    what ``_intra`` gives, and the backward never replays the forward.
    """
    c, dk = Qt.shape
    dv = Vt.shape[1]
    dqt = np.empty((c, dk))
    dkt = np.zeros((c, dk))
    dvt = np.zeros((c, dv))
    acc = np.empty((c, dv))
    for j0, n in _row_blocks(c):
        W = _causal(mm(Qt[j0:n], Kt[:n].T, meter), j0)
        G = _causal(mm(dOt[j0:n], Vt[:n].T, meter), j0)
        acc[j0:n] = mm(W, Vt[:n], meter)
        dqt[j0:n] = mm(G, Kt[:n], meter)
        dkt[:n] += mm(G.T, Qt[j0:n], meter)
        dvt[:n] += mm(W.T, dOt[j0:n], meter)
        meter.add_flops(n * (dk + dv))  # the two accumulating adds
    return dqt, dkt, dvt, acc


def _transforms(dec, Qc, Kc, Vc, meter: Meter):
    """One chunk's Qt = Q (.) Bdag, Kt = K / Bdag and Vt = V / Ddag, metered."""
    Qt = Qc * dec.b_dagger
    Kt = Kc / dec.b_dagger
    Vt = Vc / dec.d_dagger
    meter.add_flops(Qt.size + Kt.size + Vt.size)
    return Qt, Kt, Vt


def _state_update(dec, Kc, Vc, S, meter: Meter) -> np.ndarray:
    """S_new = (gamma_b^T gamma_d) (.) S + (Bpri (.) K)^T (Dpri (.) V); S None is chunk 0."""
    KB = dec.b_prime * Kc
    VD = dec.d_prime * Vc
    meter.add_flops(KB.size + VD.size)
    T = mm(KB.T, VD, meter)
    if S is None:
        return T
    Gm = outer_gate(dec.log_gamma_b, dec.log_gamma_d)
    meter.add_flops(2 * Gm.size + 2 * T.size)  # Gm's add + exp, gate the state, add T
    return Gm * S + T


def forward_chunkwise(inst: GlaInstance, plan: ChunkPlan, policy: ChunkPolicy):
    """Run the chunkwise forward.  Returns (O, chunk states or None, CostReport)."""
    _check_plan(inst, plan)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    dv = inst.dv
    meter = Meter()
    O = np.empty((inst.L, dv))
    S = None
    states = [] if policy.materialize else None
    for i, (s, e) in enumerate(plan.boundaries):
        dec = _decays(inst, s, e, meter)
        c = e - s
        Qt, Kt, Vt = _transforms(dec, Q[s:e], K[s:e], V[s:e], meter)
        acc = _intra(Qt, Kt, Vt, meter)
        if i > 0:
            acc = mm(Qt, S, meter) + acc
            meter.add_flops(c * dv)
        O[s:e] = acc * dec.d_dagger
        meter.add_flops(c * dv)
        S = _state_update(dec, K[s:e], V[s:e], S, meter)
        if states is not None:
            states.append(readonly(S))  # never written again: the next chunk rebinds S
            meter.state_writes += 1
    try:
        O = SeqTensor(O)
    except ValueError:
        _name_bad_chunk(inst, plan, O)
        raise
    return O, states, meter.report()


def backward_chunkwise(inst: GlaInstance, dO: SeqTensor, plan: ChunkPlan,
                       policy: ChunkPolicy):
    """Gradients of <O, dO> computed chunk by chunk.  Returns (GradBundle, CostReport).

    Two sweeps, as in the GLA paper's chunkwise backward; no full-length
    array is allocated besides the five gradients, and each sweep forms a
    chunk's decay factors when it reaches the chunk rather than holding
    them for the whole pass (sweep R forms them a second time, except for
    the last chunk, whose factors sweep F ended with).  (F) A forward-order
    sweep runs the state recurrence once and does everything that needs
    S_{i-1} or only the chunk itself: the intra-chunk cotangents, the
    inter-chunk dq term, the scale-backs of dq, dk and dv, and the chunk's
    output rows O, bit for bit the forward's and re-formed from the score
    blocks rather than by replaying the forward.  O is parked in the rows
    of the dlog_beta buffer.  Under materialize the sweep records every
    chunk state (one slow-memory write each) and reads S_{i-1} back from
    the record; under recompute it uses the live state and stores nothing.
    (R) A reverse sweep does only what needs the state cotangent dS: each
    chunk's K/V path through dS and the carry of dS.  Once a chunk's rows
    are final it assembles the gate gradients from the identities
    dlogb = q (.) dq - k (.) dk and dlogd = o (.) do - v (.) dv (query term
    positive; the finite-difference oracle pins the sign) as suffix sums
    continued from the next chunk, equal to whole-array suffix sums bit
    for bit.
    """
    if dO.shape != (inst.L, inst.dv):
        raise ValueError(f"dO must be {inst.L}x{inst.dv}, got {dO.shape}")
    _check_plan(inst, plan)
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    dOa = dO.data
    L, dk, dv = inst.L, inst.dk, inst.dv
    N = plan.num_chunks

    meter = Meter()
    dQ = np.zeros((L, dk))
    dK = np.zeros((L, dk))
    dV = np.zeros((L, dv))
    dlb = np.empty((L, dv))  # holds each chunk's O rows until sweep R reads them

    # Sweep F: the state recurrence, and every piece that needs S_{i-1} or
    # only the chunk itself, in forward order.
    states = [] if policy.materialize else None
    S = None
    for i, (s, e) in enumerate(plan.boundaries):
        dec = _decays(inst, s, e, meter)
        c = e - s
        Qt, Kt, Vt = _transforms(dec, Q[s:e], K[s:e], V[s:e], meter)
        dOt = dOa[s:e] * dec.d_dagger
        meter.add_flops(c * dv)
        dqt, dkt, dvt, Oc = _intra_backward(Qt, Kt, Vt, dOt, meter)
        if i > 0:  # the inter-chunk terms; dq takes them before its intra term
            if states is not None:
                S = states[i - 1]
                meter.state_reads += 1
            dQ[s:e] += mm(dOt, S.T, meter) * dec.b_dagger
            Oc += mm(Qt, S, meter)
            meter.add_flops(2 * c * dk + c * dv)
        dQ[s:e] += dqt * dec.b_dagger
        dK[s:e] += dkt / dec.b_dagger
        dV[s:e] += dvt / dec.d_dagger
        meter.add_flops(4 * c * dk + 2 * c * dv)
        dlb[s:e] = Oc * dec.d_dagger  # the forward's O rows, bit for bit
        meter.add_flops(c * dv)
        S = _state_update(dec, K[s:e], V[s:e], S, meter)
        if states is not None:
            states.append(readonly(S))
            meter.state_writes += 1
        else:
            meter.recompute_passes += 1

    # Sweep R needs neither the recorded states nor sweep F's chunk
    # temporaries; it starts from the last chunk's factors, which sweep F
    # ended with, and forms every other chunk's again.
    del states, S, Qt, Kt, Vt, dOt, dqt, dkt, dvt, Oc

    # Sweep R: the state-cotangent path and its carry, and the gate
    # gradients of each chunk once its rows are final, in reverse order.
    dla = np.empty((L, dk))
    dS = None
    for i in range(N - 1, -1, -1):
        s, e = plan.boundaries[i]
        if i < N - 1:
            dec = _decays(inst, s, e, meter)
        c = e - s
        if dS is not None:
            # chunk i's own K/V contribution to S_i, weighted by the carried cotangent
            KB = dec.b_prime * K[s:e]
            VD = dec.d_prime * V[s:e]
            dK[s:e] += mm(VD, dS.T, meter) * dec.b_prime
            dV[s:e] += mm(KB, dS, meter) * dec.d_prime
            meter.add_flops(3 * c * dk + 3 * c * dv)
        if i > 0:
            Qt = Q[s:e] * dec.b_dagger
            dOt = dOa[s:e] * dec.d_dagger
            meter.add_flops(c * dk + c * dv)
            dS_out = mm(Qt.T, dOt, meter)
            if dS is None:
                dS = dS_out
            else:
                Gm = outer_gate(dec.log_gamma_b, dec.log_gamma_d)
                dS = Gm * dS + dS_out
                meter.add_flops(2 * Gm.size + 2 * dk * dv)  # Gm's add + exp, gate, add

        # Gate gradients as suffix sums continued from the next chunk:
        # folding its first row into this chunk's last row is the
        # whole-array accumulate's own next step.
        dla[s:e] = Q[s:e] * dQ[s:e] - K[s:e] * dK[s:e]
        dlb[s:e] = dlb[s:e] * dOa[s:e] - V[s:e] * dV[s:e]
        meter.add_flops(3 * c * dk + 3 * c * dv)
        if i < N - 1:
            dla[e - 1] += dla[e]
            dlb[e - 1] += dlb[e]
            meter.add_flops(dk + dv)
        dla[s:e] = suffix_sum_arr(dla[s:e])
        dlb[s:e] = suffix_sum_arr(dlb[s:e])
        meter.add_flops((c - 1) * (dk + dv))
    try:
        grads = GradBundle(dQ, dK, dV, dla, dlb)
    except ValueError:
        # not the gate gradients: their suffix sums carry a bad chunk back to row 0
        _name_bad_chunk(inst, plan, dQ, dK, dV)
        raise
    return grads, meter.report()


def _block_area(c: int) -> int:
    """Sum over the row blocks of a c-row chunk of block rows x prefix length."""
    q, r = divmod(c, BLOCK)
    return BLOCK * BLOCK * q * (q + 1) // 2 + r * c


def predict_cost(L: int, dk: int, dv: int, plan: ChunkPlan, policy: ChunkPolicy,
                 pass_: str = "forward") -> CostReport:
    """Closed-form counters for forward_chunkwise / backward_chunkwise.

    Pure arithmetic over the plan; never executes the kernels.  The
    instrumented runs must reproduce these numbers exactly.  One pass over
    the chunks sums each phase's flops.  A chunk's decay factors cost
    (4c-1)(dk+dv) each time a pass forms them: once in the forward, and in
    the backward twice for every chunk but the last.  Per chunk of c rows with
    A = _block_area(c), the row blocks' products sum to A(2dk-1) + (2A-c)dv
    in the forward (scores, then scores x values) and to
    A(6dk+6dv-2) - c(dk+dv) in the backward (two score products, scores x
    values, dq, and the accumulated dk and dv products with their adds).
    The backward runs the state recurrence once under either policy, so
    both policies count the same flops.  State traffic over N chunks is
    closed form: materialize writes N states in either pass and the
    backward reads N-1 of them back; recompute writes none and its
    backward replays N state updates.
    """
    if pass_ not in ("forward", "backward"):
        raise ValueError(f"pass_ must be 'forward' or 'backward', got {pass_!r}")
    if plan.L != L:
        raise ValueError(f"plan covers L={plan.L}, expected {L}")
    N = plan.num_chunks
    backward = pass_ == "backward"
    d = dk + dv

    flops = 0
    for i, (s, e) in enumerate(plan.boundaries):
        c = e - s
        A = _block_area(c)
        first, last = i == 0, i == N - 1
        # decays: within-chunk prefix sums, dagger and prime, formed when a
        # pass reaches the chunk; sweep R forms them again for all but the last
        flops += (4 * c - 1) * d * (2 if backward and not last else 1)
        # state update, in the forward or the backward's forward-order sweep;
        # after the first chunk, the gamma outer (add+exp), gate and add
        flops += c * d + mm_flops(dk, c, dv) + (0 if first else 4 * dk * dv)
        if not backward:
            # forward: transforms, row blocks, inter term and its add, output scale
            flops += 2 * c * dk + c * dv + A * (2 * dk - 1) + (2 * A - c) * dv
            flops += (0 if first else mm_flops(c, dk, dv) + c * dv) + c * dv
            continue
        # sweep R's re-formed Qt and dOt; sweep F's Qt S_prev and dq's scaled inter term
        if not first:
            flops += c * d + mm_flops(c, dk, dv) + mm_flops(c, dv, dk) + 2 * c * dk
        # sweep F: transforms and dOt, row blocks, dq/dk/dv scaled back, output scale
        flops += 2 * c * d + A * (6 * dk + 6 * dv - 2) - c * d
        flops += 4 * c * dk + 2 * c * dv + c * dv
        if not last:  # the chunk's own K/V term of S_i under the carried cotangent
            flops += c * d + mm_flops(c, dv, dk) + mm_flops(c, dk, dv) + 2 * c * d
        if not first:  # dS_out, the inter + intra add, and (not last) the cotangent carry
            flops += mm_flops(dk, c, dv) + c * dv + (0 if last else 4 * dk * dv)
        # gate-gradient assembly: identities, suffix sums, and (not last) the
        # carry from the next chunk
        flops += (3 * c + c - 1 + (0 if last else 1)) * d

    writes = N if policy.materialize else 0
    reads = N - 1 if backward and policy.materialize else 0
    passes = N if backward and not policy.materialize else 0
    return CostReport(flops, writes, reads, passes)
