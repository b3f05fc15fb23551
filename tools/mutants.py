"""Mutation audit: does the test suite kill single-line mutants of glakit?

Each mutant is one string replacement in one file of ``src/glakit``, named
with the test that should kill it.  For each mutant the script copies
what tier-1 reads (``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml``) into a fresh scratch directory, applies the
replacement there (the working tree is never touched), and runs the
named test.  A failing test kills the mutant.  If the named test passes,
the whole tier-1 suite runs, so a survivor is a survivor of every test.

Some mutants sit below a tolerance by design, such as the parallel
backward's cotangent scores scaled by 1 + 1e-13 against the 1e-6 gradient
tolerance.  They are listed
with ``survives=True``, expected to survive, and reported as such; no
tolerance is tightened to kill one.  A mutant whose ``old`` string does
not occur exactly once in its file is malformed.

Usage, from the repository root:

    python tools/mutants.py                 # every mutant, about a minute
    python tools/mutants.py --workdir DIR   # make the scratch copies under DIR,
                                            # creating DIR if it is missing

The exit status is 1 when a mutant that should be killed survives, when
one that should survive is killed, or when one is malformed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# The one tier-1 test that reads this file, that each mutant's old string
# occurs once, fails in every mutated copy by construction, so the full
# run that looks for a mutant's killer leaves it out.
TIER1 = ["--continue-on-collection-errors", "--deselect",
         "tests/test_tooling.py::test_every_mutant_quotes_its_file_once_and_names_a_test"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/glakit
    old: str
    new: str
    killer: str  # pytest node id, relative to the repository root
    survives: bool = False  # below a tolerance by design


# Sweep F's lines from the state rows to O's rows, which must come after
# them, and from its dv add to dlog_beta's identity, which must come after it.
_SWEEP_F_O_SCALE = "        np.multiply(acc, dd, out=dd)\n"
_SWEEP_F_STATE_TO_O = (
    "        KB, VD = _kv(Kt, Vt, bd[:, -1:], dd[:, -1:], meter, (Kt, Vt))\n"
    "        mm(KB.swapaxes(-1, -2), VD, meter, X[1:g + 1])\n"
    "        del Kt, Vt, KB, VD\n"
    "        if g > f:  # the scan, then the inter terms of O and of dq\n"
    "            _scan(log_gamma[k0 + f:k1, :dk], log_gamma[k0 + f:k1, dk:], X[f:g + 1], meter)\n"
    "            acc[f:] += mm(Qt[f:], X[f:g], meter)\n"
    "            dqt[f:] += mm(dOt[f:], X[f:g].swapaxes(-1, -2), meter)\n"
    "            meter.flops += acc[f:].size + dqt[f:].size\n"
    "        # O's rows over d_dagger, then dlog_beta's identity o (.) do - v (.) dv\n"
    "        # in their place, now that dV's rows are final\n"
    + _SWEEP_F_O_SCALE)
_SWEEP_F_DV_TO_DBETA = (
    "            dVg[:n] += np.divide(dvt[:n], dd[:n], out=dvt[:n])\n"
    "            meter.flops += n * c * (dk + dv)\n"
    "        if n < g:\n"
    "            np.divide(dkt[n:], bd[n:], out=dKg[n:])\n"
    "            np.divide(dvt[n:], dd[n:], out=dVg[n:])\n"
    "        # the state rows read gamma from the daggers, so they come before\n"
    "        # the forward's O rows, bit for bit, are written over d_dagger\n"
    + _SWEEP_F_STATE_TO_O
    + "        dd *= dOa[s:e].reshape(g, c, -1)\n"
    "        dd -= V[s:e].reshape(g, c, -1) * dVg\n")

MUTANTS = (
    # Judges and guards that no test used to pin, each now pinned by its
    # own test ...
    Mutant("report_verdict_10x_tol", "checks.py",
           "r, tol, r <= tol,", "r, tol, r <= 10 * tol,",
           "tests/test_fixtures_checks.py::test_report_at_twice_the_tolerance_fails"),
    Mutant("rel_err_floor_1e-3", "checks.py",
           "max(1e-8, float(", "max(1e-3, float(",
           "tests/test_fixtures_checks.py::test_rel_err_of_a_small_magnitude_pair"),
    Mutant("causality_one_trial", "checks.py",
           "for _ in range(B):", "for _ in range(min(B, 1)):",
           "tests/test_fixtures_checks.py::test_check_causality_draws_one_cut_per_trial"),
    Mutant("gates_accept_positive_log_beta", "gates.py",
           "if hi > 0.0:", 'if hi > 0.0 and side == "log_alpha":',
           "tests/test_gates.py::test_rejects_positive_log_gates"),
    Mutant("causality_ignores_recurrent_leak", "checks.py",
           "exact_ok = False", "pass",
           "tests/test_fixtures_checks.py::test_check_causality_fails_a_leaking_recurrent_form"),
    # ... and nine that it caught.
    Mutant("fd_quotient_1e-7_high", "recurrent.py",
           "/ (2.0 * eps)", "/ (2.0 * eps) * (1 + 1e-7)",
           "tests/test_recurrent.py::test_fd_on_linear_q_is_tight"),
    Mutant("gradcheck_flip_ignored", "checks.py",
           "got = -got", "got = got",
           "tests/test_fixtures_checks.py::test_check_gradients_flipped_sign_detected"),
    Mutant("causality_verdict_ignores_tol", "checks.py",
           "passed = exact_ok and worst_rel <= tol", "passed = exact_ok",
           "tests/test_fixtures_checks.py::test_check_causality_reports_underflowing_chunk_as_fail"),
    Mutant("records_accept_non_finite", "tensor.py",
           "if not (math.isfinite(lo) and math.isfinite(hi)):", "if False:",
           "tests/test_tensor.py::test_constructors_reject_nonfinite"),
    Mutant("fixtures_accept_retnet_gamma_1", "fixtures.py",
           "not (0.0 < self.gamma < 1.0)", "not (0.0 < self.gamma <= 1.0)",
           "tests/test_fixtures_checks.py::test_invalid_parameters_rejected"),
    Mutant("glat_accepts_bad_magic", "tensorfile.py",
           "if magic != MAGIC:", "if False:",
           "tests/test_tensorfile.py::test_bad_magic"),
    Mutant("glat_accepts_short_payload", "tensorfile.py",
           "if payload != expected:", "if False:",
           "tests/test_tensorfile.py::test_trailing_bytes"),
    Mutant("cli_input_error_exit_1", "cli.py",
           'file=sys.stderr)\n        return EXIT_INPUT_ERROR\n\n\nif __name__',
           'file=sys.stderr)\n        return EXIT_CHECK_FAILED\n\n\nif __name__',
           "tests/test_cli.py::test_run_missing_input_exit_2"),
    Mutant("cli_run_ignores_config_dims", "cli.py",
           "if getattr(cfg, name) != getattr(inst, name):", "if False:",
           "tests/test_cli.py::test_run_config_disagreeing_with_tensors_exit_2"),
    # Input guards, each stated once and pinned by its own test.
    Mutant("cotangent_shape_unchecked", "recurrent.py",
           "if dO.shape != (self.L, self.dv):", "if False:",
           "tests/test_recurrent.py::test_backwards_reject_a_cotangent_of_the_wrong_shape"),
    Mutant("plan_check_skipped", "gates.py",
           "if self.L != L:", "if False:",
           "tests/test_chunkwise.py::test_plan_mismatch_rejected"),
    Mutant("causality_accepts_no_trial", "checks.py",
           "if trials < 1:", "if False:",
           "tests/test_fixtures_checks.py::test_check_causality_trials"),
    Mutant("sizes_accept_0", "tensor.py",
           "if size < 1:", "if size < 0:",
           "tests/test_chunkwise.py::test_cost_models_name_a_bad_size"),
    Mutant("chunk_plan_accepts_bad_L_or_C", "gates.py",
           "if self.L < 1 or self.C < 1:", "if False:",
           "tests/test_gates.py::test_chunk_plan_needs_positive_length_and_chunk"),
    Mutant("gates_accept_empty_sequence", "tensor.py",
           "if a.ndim != 2 or a.size == 0:", "if a.ndim != 2:",
           "tests/test_gates.py::test_empty_gate_sequence_rejected"),
    Mutant("run_config_accepts_chunk_0", "runconfig.py",
           ", chunk=self.chunk)", ")",
           "tests/test_cli.py::test_gen_chunk_0_exit_2_writes_nothing"),
    Mutant("run_config_accepts_dk_0", "runconfig.py",
           " dk=self.dk,", "",
           "tests/test_cli.py::test_config_names_a_bad_size"),
    Mutant("run_config_accepts_gate_floor_1.5", "runconfig.py",
           "if not (0.0 < self.gate_floor <= 1.0):", "if False:",
           "tests/test_cli.py::test_config_gate_floor_out_of_range_exit_2"),
    Mutant("config_line_without_equals_accepted", "runconfig.py",
           'if "=" not in line:', "if False:",
           "tests/test_cli.py::"
           "test_parse_config_skips_comments_and_blanks_and_names_a_line_without_equals"),
    Mutant("config_reads_comment_lines", "runconfig.py",
           'if not line or line.startswith("#"):', "if not line:",
           "tests/test_cli.py::"
           "test_parse_config_skips_comments_and_blanks_and_names_a_line_without_equals"),
    Mutant("glat_accepts_implausible_ndim", "tensorfile.py",
           "if not 1 <= ndim <= MAX_NDIM:", "if False:",
           "tests/test_tensorfile.py::test_implausible_ndim_in_header"),
    # The chunk steps that the forward and both backward sweeps share.
    Mutant("intra_keeps_no_panel_scores", "chunkwise.py",
           "None if W is None else W[..., j0 - p0:n - p0, :n]", "None",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    # The inter term Qt S_prev is each caller's own product after the scan,
    # so each copy is mutated: the forward's and sweep F's.
    Mutant("output_drops_inter_term", "chunkwise.py",
           "acc[..., f:, :, :] += mm(Qt[..., f:, :, :], S[..., :-1, :, :], meter)\n",
           "mm(Qt[..., f:, :, :], S[..., :-1, :, :], meter)\n",
           "tests/test_chunkwise.py::test_ragged_final_chunk_matches_recurrent"),
    Mutant("sweep_f_output_drops_inter_term", "chunkwise.py",
           "acc[f:] += mm(Qt[f:], X[f:g], meter)\n", "mm(Qt[f:], X[f:g], meter)\n",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("carry_gates_T_not_X", "gates.py",
           "X[..., j + 1, :, :] += G[..., j, :, :] * X[..., j, :, :]\n",
           "X[..., j + 1, :, :] = G[..., j, :, :] * X[..., j + 1, :, :] + X[..., j, :, :]\n",
           "tests/test_chunkwise.py::test_ragged_final_chunk_matches_recurrent"),
    # The forward's state rows: each side scaled by its own gamma before
    # the product, over a whole group of chunks.
    Mutant("kv_scales_Kt_by_value_gamma", "chunkwise.py",
           "        KB, VD = _kv(Kt, Vt, bd[..., -1:, :], dd[..., -1:, :], meter, (Kt, Vt))",
           "        KB, VD = _kv(Kt, Vt, dd[..., -1:, :], dd[..., -1:, :], meter, (Kt, Vt))",
           "tests/test_chunkwise.py::test_ragged_final_chunk_matches_recurrent"),
    Mutant("state_update_folds_gamma_into_Kt_Vt", "chunkwise.py",
           "        KB, VD = _kv(Kt, Vt, bd[..., -1:, :], dd[..., -1:, :], meter, (Kt, Vt))\n"
           "        mm(KB.swapaxes(-1, -2), VD, meter, St[..., a:a + g, :, :])\n",
           "        KB, VD = Kt, Vt\n"
           "        mm(KB.swapaxes(-1, -2), VD, meter, St[..., a:a + g, :, :])\n"
           "        St[..., a:a + g, :, :] *= outer_gate(lgb, lgd)\n",
           "tests/test_chunkwise.py::"
           "test_state_rows_scaled_before_their_product_at_large_chunk_decay"),
    # A group's carry (gates.carry, every form's one gated-carry loop): only
    # it loops over the group's chunks, and it gates the state carried into
    # the group like any other.
    Mutant("group_carry_skips_first_gate", "gates.py",
           "+= G[..., j, :, :] * X",
           "+= (G[..., j, :, :] if j else 1.0) * X",
           "tests/test_chunkwise.py::test_grouped_forward_matches_per_chunk_forward"),
    Mutant("group_inter_reads_outgoing_state", "chunkwise.py",
           "mm(Qt[..., f:, :, :], S[..., :-1, :, :], meter)",
           "mm(Qt[..., f:, :, :], S[..., 1:, :, :], meter)",
           "tests/test_chunkwise.py::test_all_chunk_sizes_match_recurrent"),
    Mutant("sweep_f_inter_reads_outgoing_state", "chunkwise.py",
           "mm(Qt[f:], X[f:g], meter)", "mm(Qt[f:], X[f + 1:g + 1], meter)",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("recompute_loses_group_carry", "chunkwise.py",
           "            St[..., 0, :, :] = St[..., g, :, :]\n", "            pass\n",
           "tests/test_chunkwise.py::test_grouped_forward_matches_per_chunk_forward"),
    Mutant("sweep_r_factor_without_dagger", "chunkwise.py",
           "fb = bd[:n, -1:] / bd[:n]", "fb = bd[:n, -1:]",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    # The backward's two scans, chunk by chunk within a group and carried
    # from group to group: dS back in sweep R, on reversed views of the
    # group's gates and slots, and S forward in sweep F.  Both are _scan,
    # whose loop is gates.carry.
    Mutant("ds_scan_carries_from_the_slot_it_writes", "gates.py",
           "* X[..., j, :, :]\n", "* X[..., j + 1, :, :]\n",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("sweep_r_scan_on_unreversed_slots", "chunkwise.py",
           "X[f:n + 1][::-1], meter)", "X[f:n + 1], meter)",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("sweep_f_state_not_carried_into_next_group", "chunkwise.py",
           "        X[0] = X[g]\n", "        pass\n",
           "tests/test_chunkwise.py::test_backward_agrees_with_parallel_closed_form"),
    # Sweep F on the daggers that sweep R parked in the rows of dQ and dlb.
    Mutant("last_chunk_dk_added_not_assigned", "chunkwise.py",
           "            np.divide(dkt[n:], bd[n:], out=dKg[n:])\n",
           "            dKg[n:] += np.divide(dkt[n:], bd[n:], out=dkt[n:])\n",
           "tests/test_chunkwise.py::test_passes_read_no_unwritten_memory"),
    Mutant("o_written_before_state_update", "chunkwise.py",
           _SWEEP_F_STATE_TO_O,
           _SWEEP_F_O_SCALE + _SWEEP_F_STATE_TO_O.replace(_SWEEP_F_O_SCALE, ""),
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    # dlog_beta's identity, formed in sweep F once dV's rows are final: here
    # it reads dV's rows before sweep F adds its own, though dV itself ends
    # up right.
    Mutant("dbeta_identity_before_sweep_f_dv_add", "chunkwise.py",
           _SWEEP_F_DV_TO_DBETA,
           _SWEEP_F_DV_TO_DBETA.replace("dVg[:n] += np.divide", "np.divide")
           + "        dVg[:n] += dvt[:n]\n",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    # The gate gradients (dlog_beta's identity in sweep F, the gate step
    # after both sweeps) and their cost.
    Mutant("gate_grads_skip_dla_suffix_sum", "chunkwise.py",
           "    suffix_sum_arr(dla, out=dla)\n", "",
           "tests/test_chunkwise.py::test_gate_gradients_equal_whole_array_suffix_sums_bitwise"),
    Mutant("gate_grads_add_v_dv", "chunkwise.py",
           "dd -= V[s:e].reshape(g, c, -1) * dVg", "dd += V[s:e].reshape(g, c, -1) * dVg",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("predict_gate_term_4Ld", "chunkwise.py",
           "3 * L * dk + (L - 1) * d\n", "3 * L * dk + L * d\n",
           "tests/test_chunkwise.py::test_frozen_backward_flop_count"),
    # Each policy's state traffic, stated once in ChunkPolicy.report for both
    # passes and predict_cost, so pinned by value rather than by agreement.
    Mutant("materialize_backward_reads_N_states", "chunkwise.py",
           "N - 1 if backward else 0", "N if backward else 0",
           "tests/test_chunkwise.py::test_policy_gradients_identical_and_counters"),
    Mutant("forward_records_no_states", "chunkwise.py",
           "return O, readonly(St), meter.flops", "return O, readonly(St[..., :0, :, :]), meter.flops",
           "tests/test_chunkwise.py::test_state_write_counts"),
    # The records the passes return hold read-only arrays.
    Mutant("grad_bundle_fields_writable", "recurrent.py",
           "record_array(getattr(self, f.name), f.name)[0]", "np.asarray(getattr(self, f.name))",
           "tests/test_tensor.py::test_records_frozen_and_read_only[GradBundle]"),
    # The public forms own their floating-point state; the checks keep none.
    Mutant("forward_chunkwise_without_errstate", "chunkwise.py",
           '@np.errstate(all="ignore")\ndef forward_chunkwise(', "def forward_chunkwise(",
           "tests/test_fixtures_checks.py::test_checks_own_their_floating_point_state"),
    # The reference forms' closed-form flop counts, pinned by frozen totals.
    Mutant("recurrent_cost_q_s_adds_dk", "recurrent.py",
           "+ (dk - 1) * dv", "+ dk * dv",
           "tests/test_recurrent.py::test_cost_model_matches_metered_run"),
    Mutant("parallel_cost_row_drops_minus_one", "parallel.py",
           "(5 * dk + 5 * dv - 1)", "(5 * dk + 5 * dv)",
           "tests/test_parallel.py::test_cost_model_matches_metered_run"),
    # Below a tolerance, but pinned bit for bit: the batched FD against a
    # one-entry-at-a-time reference, the parallel forward's O through the
    # backward's dlog_beta identity.
    Mutant("fd_quotient_1e-12_high", "recurrent.py",
           "/ (2.0 * eps)", "/ (2.0 * eps) * (1 + 1e-12)",
           "tests/test_recurrent.py::test_batched_fd_matches_scalar_reference_bitwise"),
    Mutant("parallel_forward_sum_1e-13_high", "parallel.py",
           "O[..., t, :] = (w[..., None] * Vd).sum(axis=-2)",
           "O[..., t, :] = (w[..., None] * Vd).sum(axis=-2) * (1 + 1e-13)",
           "tests/test_parallel.py::test_dlogd_identity_definitional"),
    # The FD oracle's blocks of rows: each row joins with its perturbed step
    # from its own prefix state, and its copies then run on from their own
    # states; the rows before it take the plain step.
    Mutant("fd_tail_from_unperturbed_state", "recurrent.py",
           "S[n] = S_t[:, dk:]", "S[n] = states[t + 1]",
           "tests/test_recurrent.py::test_batched_fd_matches_scalar_reference_bitwise"),
    Mutant("fd_minus_copies_step_plus_eps", "recurrent.py",
           "P[:, 1, w, w] -= eps", "P[:, 1, w, w] += eps",
           "tests/test_recurrent.py::test_batched_fd_matches_scalar_reference_bitwise"),
    Mutant("fd_head_drops_perturbed_row_output", "recurrent.py",
           "            O[n, :, :, t] = mm(q[..., None, :], S_t)[..., 0, :]\n", "",
           "tests/test_recurrent.py::test_batched_fd_matches_scalar_reference_bitwise"),
    Mutant("fd_join_steps_from_its_own_state", "recurrent.py",
           "_step(states[t], *rest)", "_step(states[t + 1], *rest)",
           "tests/test_recurrent.py::test_batched_fd_matches_scalar_reference_bitwise"),
    Mutant("fd_live_count_takes_joining_row", "recurrent.py",
           "n = min(t - start, R)", "n = min(t - start + 1, R)",
           "tests/test_recurrent.py::test_batched_fd_matches_scalar_reference_bitwise"),
    # The raw recurrence runs in its inputs' dtype.
    Mutant("recurrent_o_always_fp64", "recurrent.py",
           "O = np.empty((*batch, L, dv), dtype)", "O = np.empty((*batch, L, dv))",
           "tests/test_recurrent.py::test_raw_forward_runs_in_its_inputs_dtype"),
    # Same bits, twice the rows per block: only the schedule test sees it.
    Mutant("fd_block_budget_doubled", "recurrent.py",
           "2**15 // (2 * W * L * inst.dv)", "2**15 // (W * L * inst.dv)",
           "tests/test_recurrent.py::test_fd_starts_each_batch_at_the_prefix_state"),
    # The reference forms' products: ascending k, and one per block of
    # steps.  The two carries across a block boundary (the forward's last
    # state into slot 0, the backward's gated dS) do nothing in a run of
    # one block, as at every small shape; the block test makes the budget
    # small.  O from the next slot finds no slot after a block's last and
    # fails every run.
    Mutant("tensor_mm_k_descending", "tensor.py",
           "    r = a[..., :, 0, None] * b[..., 0, None, :]\n"
           "    for k in range(1, a.shape[-1]):\n",
           "    r = a[..., :, -1, None] * b[..., -1, None, :]\n"
           "    for k in range(a.shape[-1] - 2, -1, -1):\n",
           "tests/test_tensor.py::test_matmul_matches_triple_loop_bitwise"),
    Mutant("recurrent_block_o_from_next_slot", "recurrent.py",
           "blk[..., 1:n + 1, :, :])[..., 0, :]", "blk[..., 2:n + 2, :, :])[..., 0, :]",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    Mutant("recurrent_block_starts_one_slot_early", "recurrent.py",
           "blk[..., 0, :, :] = blk[..., T, :, :]", "blk[..., 0, :, :] = blk[..., T - 1, :, :]",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    Mutant("exact_bwd_s_prev_one_slot_late", "recurrent.py",
           "G *= S[t0:t1]", "G *= S[t0 + 1:t1 + 1]",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    Mutant("exact_bwd_carry_from_block_last_step", "recurrent.py",
           "dS_in = G[0] * dS[0]", "dS_in = G[0] * dS[-1]",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    # The forward's block terms and the one gated carry that the forward,
    # the exact backward's adjoint (on reversed views) and _scan run.  Each
    # keeps its shapes, so only the bits show it: the gate's two sides
    # swapped (a shape error unless dk = dv, as in the block test's first
    # example), k_t + v_t for k_t^T v_t, the adjoint gated by the step's own
    # gate rather than the next one's.
    Mutant("recurrent_block_gate_sides_swapped", "recurrent.py",
           "carry(outer_gate(la[..., t0:t1, :], lb[..., t0:t1, :]), blk)",
           "carry(outer_gate(lb[..., t0:t1, :], la[..., t0:t1, :]), blk)",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    Mutant("recurrent_block_kv_added", "recurrent.py",
           "np.multiply(K[..., t0:t1, :, None], V[..., t0:t1, None, :], out=",
           "np.add(K[..., t0:t1, :, None], V[..., t0:t1, None, :], out=",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    Mutant("exact_bwd_adjoint_gate_one_step_early", "recurrent.py",
           "carry(G[:0:-1], dS[::-1])", "carry(G[-2::-1], dS[::-1])",
           "tests/test_recurrent.py::test_block_products_match_a_per_step_loop_bitwise"),
    # The causality check's judges, once per group of trials: each trial
    # judged on its own cut, each form run on the perturbed inputs.
    Mutant("causality_cut_from_next_trial", "checks.py",
           "keep = rows < cuts[:, None, None]", "keep = rows < np.roll(cuts, 1)[:, None, None]",
           "tests/test_fixtures_checks.py::test_check_causality_groups_match_a_per_trial_loop"),
    Mutant("causality_recurrent_runs_ref", "checks.py",
           "recs, _ = recurrent._forward_raw(*stacked)",
           "recs, _ = recurrent._forward_raw(*(np.repeat(a[None], len(X), axis=0)"
           " for a, X in zip(inst.arrays, stacked)))",
           "tests/test_fixtures_checks.py::test_check_causality_fails_a_leaking_recurrent_form"),
    Mutant("causality_parallel_runs_ref", "checks.py",
           "pars = parallel._forward_raw(*stacked)",
           "pars = parallel._forward_raw(*(np.repeat(a[None], len(X), axis=0)"
           " for a, X in zip(inst.arrays, stacked)))",
           "tests/test_fixtures_checks.py::test_check_causality_fails_a_leaking_parallel_form"),
    Mutant("causality_chunkwise_runs_ref", "checks.py",
           "chks, _, _ = chunkwise._forward_raw(*stacked, plan, False)",
           "chks, _, _ = chunkwise._forward_raw(*(np.repeat(a[None], len(X), axis=0)"
           " for a, X in zip(inst.arrays, stacked)), plan, False)",
           "tests/test_fixtures_checks.py::test_check_causality_fails_a_leaking_chunkwise_form"),
    # The group's one draw and its masked comparison: the prefix stops
    # before the cut, the gate tails scale the uniforms, a non-finite
    # reference fails, and the reference element is no trial.
    Mutant("causality_prefix_takes_cut_row", "checks.py",
           "keep = rows < cuts[:, None, None]", "keep = rows <= cuts[:, None, None]",
           "tests/test_fixtures_checks.py::test_check_causality_trials"),
    Mutant("causality_gates_from_pm1", "checks.py",
           "    gates = pm1 * np.log(0.5)  # the fresh log-gates' floor is 1/2\n"
           "    pm1 *= 2.0\n    pm1 += -1.0\n",
           "    pm1 *= 2.0\n    pm1 += -1.0\n    gates = pm1 * np.log(0.5)\n",
           "tests/test_splitmix.py::test_causality_group_draw_matches_per_trial_fills"),
    Mutant("causality_accepts_non_finite_reference", "checks.py",
           "o[0] if np.isfinite(o[0]).all() else None", "o[0]",
           "tests/test_fixtures_checks.py::test_check_causality_reports_an_overflowing_reference_as_fail"),
    Mutant("causality_ref_compared_as_trial", "checks.py",
           "recs, pars, chks = recs[r:], pars[r:], chks[r:]",
           "recs, pars, chks = recs[:len(cuts)], pars[:len(cuts)], chks[:len(cuts)]",
           "tests/test_fixtures_checks.py::test_check_causality_groups_match_a_per_trial_loop"),
    # Batch-only: on one chunk's 2-D rows each is the same op as the
    # original, so only a batched forward (or a group of chunks) tells them apart.
    Mutant("chunk_prefix_sum_along_axis_0", "gates.py",
           "prefix_sum(lg, -2,", "prefix_sum(lg, 0,",
           "tests/test_chunkwise.py::test_batched_raw_forward_matches_each_elements_own_run"),
    Mutant("gamma_b_from_last_batch_element", "chunkwise.py",
           "_kv(Kt, Vt, bd[..., -1:, :],", "_kv(Kt, Vt, bd[-1:],",
           "tests/test_chunkwise.py::test_batched_raw_forward_matches_each_elements_own_run"),
    Mutant("cumulative_decay_along_axis_0", "gates.py",
           "prefix_sum(x, -2,", "prefix_sum(x, 0,",
           "tests/test_parallel.py::test_batched_raw_forms_match_each_elements_own_run"),
    # Two columns ride in one complex add only where that is two fp64 adds:
    # longdouble viewed as complex128 is garbage, and along the last axis
    # the two lanes of a pair are two terms of one sum, not two sums.
    Mutant("prefix_sum_pairs_longdouble", "tensor.py",
           "x.size >= _PAIR_MIN_SIZE and x.dtype == out.dtype == np.float64",
           "x.size >= _PAIR_MIN_SIZE",
           "tests/test_tensor.py::test_prefix_sum_is_sequential_bitwise"),
    Mutant("prefix_sum_pairs_along_the_last_axis", "tensor.py",
           "axis % x.ndim < x.ndim - 1", "axis % x.ndim < x.ndim",
           "tests/test_tensor.py::test_prefix_sum_is_sequential_bitwise"),
    # The error path names a chunk from that chunk's own gate rows.
    Mutant("bad_chunk_gate_rows_from_0", "chunkwise.py",
           "chunk_factors(la[s:e], lb[s:e])", "chunk_factors(la[:e], lb[:e])",
           "tests/test_chunkwise.py::test_non_finite_output_names_its_chunk[24-2-2-4-1e-300-1]"),
    # Below a tolerance by design: expected to survive.
    Mutant("parallel_backward_scores_1e-13_high", "parallel.py",
           "g = (Vd * dOa[t]).sum(axis=1)", "g = (Vd * dOa[t]).sum(axis=1) * (1 + 1e-13)",
           "tests/test_parallel.py::test_backward_matches_fd", survives=True),
    Mutant("gradcheck_eps_doubled", "checks.py",
           "eps: float = 1e-5, tol: float = 1e-6,", "eps: float = 2e-5, tol: float = 1e-6,",
           "tests/test_fixtures_checks.py::test_check_gradients_general", survives=True),
)


def _pytest(copy: Path, args: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(m: Mutant, workdir: str | None) -> str:
    """'killed', 'killed (not by its test)', 'survived', or 'malformed: ...'."""
    with tempfile.TemporaryDirectory(prefix="mutant-", dir=workdir) as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        path = copy / "src" / "glakit" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return f"malformed: old string occurs {text.count(m.old)} times in {m.file}"
        path.write_text(text.replace(m.old, m.new))
        code = _pytest(copy, [m.killer])
        if code == 1:
            return "killed"
        if code != 0:
            return f"malformed: pytest exit {code} on {m.killer}"
        return "survived" if _pytest(copy, TIER1) == 0 else "killed (not by its test)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workdir", help="directory for the scratch copies, created if missing (default: the system's)")
    args = p.parse_args(argv)
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    bad = 0
    for m in MUTANTS:
        expect = "survives" if m.survives else "killed"
        got = run(m, args.workdir)
        ok = got == "survived" if m.survives else got.startswith("killed")
        bad += not ok
        print(f"{m.name:36s} {got:28s} {'ok' if ok else 'UNEXPECTED'} (expect {expect})",
              flush=True)
    print(f"summary: {len(MUTANTS)} mutants, {bad} unexpected")
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
