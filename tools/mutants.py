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
    python tools/mutants.py --workdir DIR   # make the scratch copies under DIR

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
TIER1 = ["--continue-on-collection-errors"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/glakit
    old: str
    new: str
    killer: str  # pytest node id, relative to the repository root
    survives: bool = False  # below a tolerance by design


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
           "for _ in range(trials):", "for _ in range(min(trials, 1)):",
           "tests/test_fixtures_checks.py::test_check_causality_draws_one_cut_per_trial"),
    Mutant("gates_accept_positive_log_beta", "gates.py",
           "if la.max() > 0.0 or lb.max() > 0.0:", "if la.max() > 0.0:",
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
           "if not (math.isfinite(a.min()) and math.isfinite(a.max())):", "if False:",
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
    Mutant("chunk_plan_accepts_bad_L_or_C", "gates.py",
           "if self.L < 1 or self.C < 1:", "if False:",
           "tests/test_gates.py::test_chunk_plan_needs_positive_length_and_chunk"),
    Mutant("gates_accept_empty_sequence", "gates.py",
           "if la.shape[0] < 1 or la.shape[1] < 1 or lb.shape[1] < 1:", "if False:",
           "tests/test_gates.py::test_empty_gate_sequence_rejected"),
    Mutant("run_config_accepts_chunk_0", "runconfig.py",
           " or self.chunk < 1:", ":",
           "tests/test_cli.py::test_gen_chunk_0_exit_2_writes_nothing"),
    Mutant("run_config_accepts_dk_0", "runconfig.py",
           " or self.dk < 1", "",
           "tests/test_cli.py::test_cost_dk_0_exit_2"),
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
           "            W[j0 - p0:n - p0, :n] = Wb\n", "            pass\n",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("output_drops_inter_term", "chunkwise.py",
           "        acc += mm(Qt, S, meter)\n", "        mm(Qt, S, meter)\n",
           "tests/test_chunkwise.py::test_ragged_final_chunk_matches_recurrent"),
    Mutant("carry_gates_T_not_X", "chunkwise.py",
           "return Gm * X + T", "return X + Gm * T",
           "tests/test_chunkwise.py::test_ragged_final_chunk_matches_recurrent"),
    # The state rows: each side scaled by its own gamma before the product.
    Mutant("kv_scales_Kt_by_value_gamma", "chunkwise.py",
           "_kv(Kt, Vt, dec.gamma_b, dec.gamma_d, meter)",
           "_kv(Kt, Vt, dec.gamma_d, dec.gamma_d, meter)",
           "tests/test_chunkwise.py::test_ragged_final_chunk_matches_recurrent"),
    Mutant("state_update_folds_gamma_into_Kt_Vt", "chunkwise.py",
           "    KB, VD = _kv(Kt, Vt, dec.gamma_b, dec.gamma_d, meter)\n"
           "    return _carry(dec, S, mm(KB.T, VD, meter), meter)\n",
           "    T = mm(Kt.T, Vt, meter)\n"
           "    return outer_gate(dec.log_gamma_b, dec.log_gamma_d) * (T if S is None else S + T)\n",
           "tests/test_chunkwise.py::"
           "test_state_rows_scaled_before_their_product_at_large_chunk_decay"),
    Mutant("sweep_r_factor_without_dagger", "chunkwise.py",
           "fb = dec.gamma_b / dec.b_dagger", "fb = dec.gamma_b",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    # Sweep F on the daggers that sweep R parked in the rows of dQ and dlb.
    Mutant("last_chunk_dk_added_not_assigned", "chunkwise.py",
           "            np.divide(dkt, b_dag, out=dK[s:e])\n",
           "            dK[s:e] += np.divide(dkt, b_dag, out=dkt)\n",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("o_written_before_state_update", "chunkwise.py",
           "        S_new = _state_update(dec, Kt, Vt, S, meter)\n"
           "        _output(Oc, Qt, S, dec, dlb[s:e], meter)",
           "        _output(Oc, Qt, S, dec, dlb[s:e], meter)\n"
           "        S_new = _state_update(dec, Kt, Vt, S, meter)",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    # The gate-gradient step after sweep R, and its cost.
    Mutant("gate_grads_skip_dla_suffix_sum", "chunkwise.py",
           "    suffix_sum_arr(dla, out=dla)\n", "",
           "tests/test_chunkwise.py::test_gate_gradients_equal_whole_array_suffix_sums_bitwise"),
    Mutant("gate_grads_add_v_dv", "chunkwise.py",
           "dlb[s:e] -= V[s:e] * dV[s:e]", "dlb[s:e] += V[s:e] * dV[s:e]",
           "tests/test_chunkwise.py::test_backward_matches_fd"),
    Mutant("predict_gate_term_4Ld", "chunkwise.py",
           "(4 * L - 1) * d", "4 * L * d",
           "tests/test_chunkwise.py::test_frozen_backward_flop_count"),
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
           "in _rows(inst):\n        O[t] = (w[:, None] * Vd).sum(axis=0)",
           "in _rows(inst):\n        O[t] = (w[:, None] * Vd).sum(axis=0) * (1 + 1e-13)",
           "tests/test_parallel.py::test_dlogd_identity_definitional"),
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
    p.add_argument("--workdir", help="directory for the scratch copies (default: the system's)")
    args = p.parse_args(argv)
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
