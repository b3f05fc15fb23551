"""Chunkwise-parallel form: inter-chunk recurrence + intra-chunk sums.

The sequence is split into chunks.  A dk x dv state is carried across
chunk boundaries exactly as in the recurrent form (amortizing the
elementwise state gating over whole chunks), while positions inside a
chunk are handled by masked weighted sums whose decay ratios only ever
span the chunk, keeping every exponent bounded regardless of sequence
length.  Output for chunk rows t in [s, e):

    o_t = [ (q_t (.) Bdag_t) S_prev  +  sum_{s<=i<=t} <q_t (.) Bdag_t, k_i / Bdag_i> (v_i / Ddag_i) ] (.) Ddag_t

and the carried state update

    S_new = (gamma_b^T gamma_d) (.) S_prev + (Bpri (.) K)^T (Dpri (.) V).

Inside a chunk the rows are taken in blocks of ``BLOCK``.  Rows [j0, n)
are scored against the chunk prefix [:n] with one product
(``Qt[j0:n] Kt[:n]^T``), the strict upper triangle of the block's own
diagonal square is zeroed by assignment (never by multiplying with a mask,
which would turn an inf score into NaN rather than 0), and one more product
applies the scores to ``Vt[:n]``.  The backward does the same with
``dOt Vt^T`` and accumulates ``dk += G^T Qt`` and ``dv += W^T dOt``.  The
block size trades the upper-triangle work a block computes and throws away
against the number of Python-level products: at L=4096, d=64, C=64 the
forward counts 113.1 M flops at ``BLOCK = 16``, under the recurrent form's
117.2 M, while 32-row blocks (121.4 M) and whole-chunk squares (138.1 M)
would count more than the recurrence they are meant to beat.

Every product, intra-chunk and state alike, goes through ``mm``, one
2-D BLAS product.  BLAS may sum in any order, so these products are not
the pinned ascending-k ``tensor.mm`` of the reference forms; they are
deterministic for equal shapes and inputs, which is what the chunkwise
bitwise promises rest on: the two policies agree bit for bit, and so do
repeated calls.

Two scheduling policies are modeled: ``materialize`` records every chunk
state to slow memory so the backward can read them back (chunk-parallel
backward); ``recompute`` stores nothing and replays the state recurrence
during the backward instead.  Both produce identical numbers; they differ
only in the CostReport.  Every executed array op is metered at its call
site with the exact flop convention from ``cost``; ``predict_cost`` mirrors
the implementation in closed form and must agree integer-for-integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cost import CostReport, Meter, mm_flops
from .gates import ChunkPlan, chunk_relative_decays, cumulative_log_decay
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


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The chunk kernel's 2-D product, done by BLAS (numpy's matmul).

    Every chunkwise product, and only those, goes through this name, so a
    profiler can time them all by rebinding it.
    """
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


def _decays(inst: GlaInstance, plan: ChunkPlan, meter: Meter):
    """Cumulative log decays + per-chunk factors, metered."""
    if plan.L != inst.L:
        raise ValueError(f"plan covers L={plan.L} but instance has L={inst.L}")
    dk, dv = inst.dk, inst.dv
    cd = cumulative_log_decay(inst.gates)
    meter.add_flops((inst.L - 1) * (dk + dv))  # prefix sums
    decs = chunk_relative_decays(cd, plan)
    for s, e in plan.boundaries:
        c = e - s
        meter.add_flops(2 * c * (dk + dv))  # dagger/prime log diffs
        meter.add_flops(2 * c * (dk + dv))  # dagger/prime exps
        meter.add_flops(dk + dv)            # log_gamma diffs
    return decs


def _intra(Qt, Kt, Vt, meter: Meter) -> np.ndarray:
    """Within-chunk sums of the transformed output, one row block at a time."""
    c, dk = Qt.shape
    dv = Vt.shape[1]
    acc = np.empty((c, dv))
    for j0, n in _row_blocks(c):
        W = _causal(mm(Qt[j0:n], Kt[:n].T), j0)
        acc[j0:n] = mm(W, Vt[:n])
        meter.add_flops(mm_flops(n - j0, dk, n) + mm_flops(n - j0, n, dv))
    return acc


def _intra_backward(Qt, Kt, Vt, dOt, meter: Meter):
    """Cotangents (dqt, dkt, dvt) of _intra given the transformed dO.

    A helper so the last block's scores are freed before the gate-gradient
    assembly, where the backward's traced memory peaks.
    """
    c, dk = Qt.shape
    dv = Vt.shape[1]
    dqt = np.empty((c, dk))
    dkt = np.zeros((c, dk))
    dvt = np.zeros((c, dv))
    for j0, n in _row_blocks(c):
        b = n - j0
        W = _causal(mm(Qt[j0:n], Kt[:n].T), j0)
        G = _causal(mm(dOt[j0:n], Vt[:n].T), j0)
        meter.add_flops(mm_flops(b, dk, n) + mm_flops(b, dv, n))
        dqt[j0:n] = mm(G, Kt[:n])
        meter.add_flops(mm_flops(b, n, dk))
        dkt[:n] += mm(G.T, Qt[j0:n])
        meter.add_flops(mm_flops(n, b, dk) + n * dk)
        dvt[:n] += mm(W.T, dOt[j0:n])
        meter.add_flops(mm_flops(n, b, dv) + n * dv)
    return dqt, dkt, dvt


def _gamma_outer(dec, meter: Meter, dk: int, dv: int) -> np.ndarray:
    """Whole-chunk decay matrix, exp of the summed log-gammas (one exp per element)."""
    g = np.exp(dec.log_gamma_b[:, None] + dec.log_gamma_d[None, :])
    meter.add_flops(2 * dk * dv)
    return g


def _state_update(dec, Kc, Vc, S, first: bool, meter: Meter) -> np.ndarray:
    """S_new = (gamma_b^T gamma_d) (.) S + (Bpri (.) K)^T (Dpri (.) V)."""
    c, dk = Kc.shape
    dv = Vc.shape[1]
    KB = dec.b_prime * Kc
    VD = dec.d_prime * Vc
    meter.add_flops(c * dk + c * dv)
    T = mm(KB.T, VD)
    meter.add_flops(mm_flops(dk, c, dv))
    if first:
        return T
    Gm = _gamma_outer(dec, meter, dk, dv)
    meter.add_flops(2 * dk * dv)  # gate the carried state, add the chunk term
    return Gm * S + T


def _run_forward(inst: GlaInstance, plan: ChunkPlan, decs, collect: bool, meter: Meter):
    """Forward sweep given precomputed decays.  Returns (O, states or None)."""
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    dk, dv = inst.dk, inst.dv
    O = np.empty((inst.L, dv))
    S = np.zeros((dk, dv))
    states = [] if collect else None
    for i, (s, e) in enumerate(plan.boundaries):
        dec = decs[i]
        c = e - s
        Qt = Q[s:e] * dec.b_dagger
        Kt = K[s:e] / dec.b_dagger
        Vt = V[s:e] / dec.d_dagger
        meter.add_flops(2 * c * dk + c * dv)
        acc = _intra(Qt, Kt, Vt, meter)
        if i > 0:
            inter = mm(Qt, S)
            meter.add_flops(mm_flops(c, dk, dv))
            acc = inter + acc
            meter.add_flops(c * dv)
        O[s:e] = acc * dec.d_dagger
        meter.add_flops(c * dv)
        S = _state_update(dec, K[s:e], V[s:e], S, i == 0, meter)
        if collect:
            states.append(readonly(S))  # never written again: the next chunk rebinds S
            meter.state_writes += 1
    return O, states


def forward_chunkwise(inst: GlaInstance, plan: ChunkPlan, policy: ChunkPolicy):
    """Run the chunkwise forward.  Returns (O, chunk states or None, CostReport)."""
    meter = Meter()
    decs = _decays(inst, plan, meter)
    O, states = _run_forward(inst, plan, decs, policy.materialize, meter)
    return SeqTensor(O), states, meter.report()


def backward_chunkwise(inst: GlaInstance, dO: SeqTensor, plan: ChunkPlan,
                       policy: ChunkPolicy):
    """Gradients of <O, dO> computed chunk by chunk.  Returns (GradBundle, CostReport).

    Three sweeps: (A) the forward, which supplies O for the value-gate
    identity and, under materialize, the stored chunk states; (B) a
    forward-order sweep accumulating the state-to-output gradient pieces,
    with chunk states read back or replayed per the policy; (C) a reverse
    sweep carrying the state cotangent and accumulating everything else.
    Gate gradients are assembled from the identities
    dlogb = q (.) dq - k (.) dk and dlogd = o (.) do - v (.) dv followed by
    suffix sums (query term positive; the finite-difference oracle pins
    the sign).
    """
    if dO.shape != (inst.L, inst.dv):
        raise ValueError(f"dO must be {inst.L}x{inst.dv}, got {dO.shape}")
    Q, K, V = inst.Q.data, inst.K.data, inst.V.data
    dOa = dO.data
    L, dk, dv = inst.L, inst.dk, inst.dv
    N = plan.num_chunks

    meter = Meter()
    decs = _decays(inst, plan, meter)
    O, states = _run_forward(inst, plan, decs, policy.materialize, meter)

    dQ = np.zeros((L, dk))
    dK = np.zeros((L, dk))
    dV = np.zeros((L, dv))

    # Sweep B: pieces needing S_{i-1}, in forward order.  materialize reads
    # back the states the forward recorded (one slow-memory read each);
    # recompute replays the inter-chunk recurrence chunk by chunk, storing
    # nothing beyond the live running state.
    S_run = np.zeros((dk, dv))
    for i, (s, e) in enumerate(plan.boundaries):
        dec = decs[i]
        c = e - s
        if i > 0:
            if states is not None:
                S_prev = states[i - 1]
                meter.state_reads += 1
            else:
                S_prev = S_run
            dOt = dOa[s:e] * dec.d_dagger
            meter.add_flops(c * dv)
            dq_inter = mm(dOt, S_prev.T)
            meter.add_flops(mm_flops(c, dv, dk))
            dQ[s:e] += dq_inter * dec.b_dagger
            meter.add_flops(2 * c * dk)
        if states is None:
            S_run = _state_update(dec, K[s:e], V[s:e], S_run, i == 0, meter)
            meter.recompute_passes += 1

    # Sweep C: intra-chunk pieces, state-path pieces, cotangent carry.
    dS = np.zeros((dk, dv))
    for i in range(N - 1, -1, -1):
        s, e = plan.boundaries[i]
        dec = decs[i]
        c = e - s
        Qt = Q[s:e] * dec.b_dagger
        Kt = K[s:e] / dec.b_dagger
        Vt = V[s:e] / dec.d_dagger
        meter.add_flops(2 * c * dk + c * dv)
        dOt = dOa[s:e] * dec.d_dagger
        meter.add_flops(c * dv)

        dqt, dkt, dvt = _intra_backward(Qt, Kt, Vt, dOt, meter)
        dQ[s:e] += dqt * dec.b_dagger
        meter.add_flops(2 * c * dk)
        dK[s:e] += dkt / dec.b_dagger
        meter.add_flops(2 * c * dk)
        dV[s:e] += dvt / dec.d_dagger
        meter.add_flops(2 * c * dv)

        if i < N - 1:
            # chunk i's own K/V contribution to S_i, weighted by the carried cotangent
            KB = dec.b_prime * K[s:e]
            VD = dec.d_prime * V[s:e]
            meter.add_flops(c * dk + c * dv)
            dK[s:e] += mm(VD, dS.T) * dec.b_prime
            meter.add_flops(mm_flops(c, dv, dk) + 2 * c * dk)
            dV[s:e] += mm(KB, dS) * dec.d_prime
            meter.add_flops(mm_flops(c, dk, dv) + 2 * c * dv)

        if i > 0:
            dS_out = mm(Qt.T, dOt)
            meter.add_flops(mm_flops(dk, c, dv))
            if i < N - 1:
                Gm = _gamma_outer(dec, meter, dk, dv)
                dS = Gm * dS + dS_out
                meter.add_flops(2 * dk * dv)
            else:
                dS = dS_out

    dlogb = Q * dQ - K * dK
    meter.add_flops(3 * L * dk)
    dlogd = O * dOa - V * dV
    meter.add_flops(3 * L * dv)
    dla = suffix_sum_arr(dlogb)
    dlb = suffix_sum_arr(dlogd)
    meter.add_flops((L - 1) * (dk + dv))
    return GradBundle(dQ, dK, dV, dla, dlb), meter.report()


def _block_area(c: int) -> int:
    """Sum over the row blocks of a c-row chunk of block rows x prefix length."""
    q, r = divmod(c, BLOCK)
    return BLOCK * BLOCK * q * (q + 1) // 2 + r * c


def predict_cost(L: int, dk: int, dv: int, plan: ChunkPlan, policy: ChunkPolicy,
                 pass_: str = "forward") -> CostReport:
    """Closed-form counters for forward_chunkwise / backward_chunkwise.

    Pure arithmetic over the plan; never executes the kernels.  The
    instrumented runs must reproduce these numbers exactly.  Per chunk of
    c rows with A = _block_area(c), the row blocks' products sum to
    A(2dk-1) + (2A-c)dv in the forward (scores, then scores x values) and
    to A(6dk+4dv-2) - c*dk in sweep C (two score products, dq, and the
    accumulated dk and dv products with their adds).
    """
    if pass_ not in ("forward", "backward"):
        raise ValueError(f"pass_ must be 'forward' or 'backward', got {pass_!r}")
    if plan.L != L:
        raise ValueError(f"plan covers L={plan.L}, expected {L}")
    N = plan.num_chunks
    flops = 0
    writes = reads = passes = 0

    # decays
    flops += (L - 1) * (dk + dv)
    for s, e in plan.boundaries:
        c = e - s
        flops += 4 * c * (dk + dv) + (dk + dv)

    def state_update_flops(c: int, first: bool) -> int:
        f = c * dk + c * dv + mm_flops(dk, c, dv)
        if not first:
            f += 4 * dk * dv  # gamma outer (add+exp) + gate + add
        return f

    # forward sweep
    for i, (s, e) in enumerate(plan.boundaries):
        c = e - s
        A = _block_area(c)
        flops += 2 * c * dk + c * dv  # transforms
        flops += A * (2 * dk - 1) + (2 * A - c) * dv  # row blocks
        if i > 0:
            flops += mm_flops(c, dk, dv) + c * dv
        flops += c * dv  # output scale
        flops += state_update_flops(c, i == 0)
        if policy.materialize:
            writes += 1

    if pass_ == "forward":
        return CostReport(flops, writes, reads, passes)

    # sweep B
    for i, (s, e) in enumerate(plan.boundaries):
        c = e - s
        if i > 0:
            if policy.materialize:
                reads += 1
            flops += c * dv + mm_flops(c, dv, dk) + 2 * c * dk
        if not policy.materialize:
            flops += state_update_flops(c, i == 0)
            passes += 1

    # sweep C
    for i in range(N - 1, -1, -1):
        s, e = plan.boundaries[i]
        c = e - s
        flops += 2 * c * dk + c * dv  # transforms
        flops += c * dv               # dOt
        flops += _block_area(c) * (6 * dk + 4 * dv - 2) - c * dk  # row blocks
        flops += 2 * c * dk + 2 * c * dk + 2 * c * dv
        if i < N - 1:
            flops += c * dk + c * dv
            flops += mm_flops(c, dv, dk) + 2 * c * dk
            flops += mm_flops(c, dk, dv) + 2 * c * dv
        if i > 0:
            flops += mm_flops(dk, c, dv)
            if i < N - 1:
                flops += 2 * dk * dv + 2 * dk * dv

    # gate-gradient assembly
    flops += 3 * L * dk + 3 * L * dv + (L - 1) * (dk + dv)
    return CostReport(flops, writes, reads, passes)
