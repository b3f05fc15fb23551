"""CLI harness: determinism, exit codes, file outputs, report formats."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from glakit import cli, read_tensor, rel_err, write_tensor
from glakit.cli import main
from glakit.runconfig import parse_config

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_dir_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen", "--L", 6, "--dk", 2, "--dv", 3, "--seed", 7,
                       "--out", out) == 0
    assert read_dir_bytes(a) == read_dir_bytes(b)


def test_gen_vanilla_zero_gates_and_payload_size(tmp_path):
    out = tmp_path / "g"
    assert run_cli("gen", "--kind", "vanilla", "--L", 4, "--dk", 2, "--dv", 2,
                   "--seed", 1, "--out", out) == 0
    la = read_tensor(out / "logalpha.glat")
    assert np.array_equal(la, np.zeros((4, 2)))
    q_bytes = (out / "Q.glat").read_bytes()
    assert len(q_bytes) - 24 == 4 * 2 * 8  # header is 24 bytes for ndim=2


def test_run_forms_agree(tmp_path):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 16, "--dk", 3, "--dv", 2, "--seed", 3, "--out", gen)
    outs = {}
    for form in ("recurrent", "parallel", "chunkwise"):
        out = tmp_path / form
        assert run_cli("run", "--in", gen, "--out", out, "--form", form,
                       "--chunk", 5) == 0
        outs[form] = read_tensor(out / "O.glat")
    assert rel_err(outs["recurrent"], outs["chunkwise"]) <= 1e-9
    assert rel_err(outs["recurrent"], outs["parallel"]) <= 1e-9


def test_run_materialize_writes_state_files(tmp_path):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 8, "--dk", 2, "--dv", 2, "--seed", 4, "--out", gen)
    out = tmp_path / "run"
    assert run_cli("run", "--in", gen, "--out", out, "--form", "chunkwise",
                   "--chunk", 2, "--policy", "materialize") == 0
    states = sorted((out / "states").glob("S_*.glat"))
    assert len(states) == 4
    cost = (out / "cost.txt").read_text()
    assert "state_writes = 4" in cost


def test_run_corrupt_magic_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 4, "--dk", 2, "--dv", 2, "--seed", 5, "--out", gen)
    bad = gen / "K.glat"
    raw = bytearray(bad.read_bytes())
    raw[:4] = b"JUNK"
    bad.write_bytes(bytes(raw))
    assert run_cli("run", "--in", gen, "--out", tmp_path / "o") == 2
    assert "K.glat" in capsys.readouterr().err


def test_run_missing_input_exit_2(tmp_path):
    assert run_cli("run", "--in", tmp_path / "nowhere", "--out", tmp_path / "o") == 2


def test_run_parallel_heavy_decay_agrees_with_chunkwise(tmp_path):
    # decay range ~ 900 * |ln 0.05| / 2 ~ 1350: the parallel form still runs
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 900, "--dk", 2, "--dv", 2, "--seed", 2,
            "--gate-floor", 0.05, "--out", gen)
    outs = {}
    for form in ("parallel", "chunkwise"):
        assert run_cli("run", "--in", gen, "--out", tmp_path / form, "--form", form) == 0
        outs[form] = read_tensor(tmp_path / form / "O.glat")
    assert rel_err(outs["parallel"], outs["chunkwise"]) <= 1e-9


@pytest.mark.parametrize("flags", [("--L", 999, "--dk", 7), ("--seed", 99, "--kind", "vanilla")])
def test_run_rejects_flags_it_would_ignore(tmp_path, capsys, flags):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 16, "--dk", 2, "--dv", 2, "--seed", 3, "--out", gen)
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--in", gen, "--out", tmp_path / "o", *flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("check", "--policy", "recompute"), ("check", "--form", "parallel"),
    ("check", "--grad-tol", 1e-3), ("check", "--eps", 1e-4),
    ("gradcheck", "--tol", 1e-3), ("gradcheck", "--policy", "recompute"),
    ("gradcheck", "--form", "parallel"),
    ("bench", "--form", "parallel"), ("bench", "--tol", 1e-3),
    ("bench", "--grad-tol", 1e-3), ("bench", "--eps", 1e-4),
    ("cost", "--kind", "vanilla"), ("cost", "--gamma", 0.5), ("cost", "--seed", 3),
    ("cost", "--gate-floor", 0.1), ("cost", "--form", "parallel"),
    ("cost", "--tol", 1e-3), ("cost", "--grad-tol", 1e-3), ("cost", "--eps", 1e-4),
])
def test_subcommands_reject_flags_they_would_ignore(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--L", 4, "--dk", 2, "--dv", 2, flag, value)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_config_disagreeing_with_tensors_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 16, "--dk", 2, "--dv", 2, "--seed", 3, "--out", gen)
    cfg = gen / "config.txt"
    cfg.write_text(cfg.read_text().replace("L = 16", "L = 40"))
    assert run_cli("run", "--in", gen, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "L = 40" in err and "L = 16" in err
    assert not (tmp_path / "o").exists()


def test_run_wrong_rank_tensor_names_file_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 4, "--dk", 2, "--dv", 2, "--seed", 3, "--out", gen)
    write_tensor(gen / "Q.glat", np.zeros((4, 2, 1)))
    assert run_cli("run", "--in", gen, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "Q.glat" in err and "(4, 2, 1)" in err
    assert not (tmp_path / "o").exists()


def test_run_dims_disagreeing_across_files_names_dir_exit_2(tmp_path, capsys):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 4, "--dk", 2, "--dv", 2, "--seed", 3, "--out", gen)
    write_tensor(gen / "Q.glat", np.zeros((4, 3)))
    assert run_cli("run", "--in", gen, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert str(gen) in err and "(4, 3)" in err and "(4, 2)" in err
    assert not (tmp_path / "o").exists()


def test_check_passes(capsys):
    assert run_cli("check", "--L", 12, "--dk", 2, "--dv", 2, "--seed", 6,
                   "--chunk", 4) == 0
    out = capsys.readouterr().out
    assert "summary:" in out and "FAIL" not in out


def test_check_zero_tolerance_fails():
    assert run_cli("check", "--L", 8, "--dk", 2, "--dv", 2, "--seed", 7,
                   "--chunk", 3, "--tol", 0.0) == 1


@pytest.mark.parametrize("command,flag,value,field", [
    ("check", "--tol", -1, "tol"), ("check", "--tol", "nan", "tol"),
    ("gradcheck", "--grad-tol", -0.5, "grad_tol"),
    ("gradcheck", "--grad-tol", "nan", "grad_tol"),
    ("gradcheck", "--eps", "inf", "eps"), ("gradcheck", "--eps", "nan", "eps"),
])
def test_bad_tolerance_or_eps_is_input_error_exit_2(capsys, command, flag, value, field):
    assert run_cli(command, "--L", 8, "--dk", 2, "--dv", 2, flag, value) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {field} must be")


def test_check_reports_underflowing_chunk_as_fail_exit_1(capsys):
    # a 64-row chunk at gate floor 1e-12 underflows b_dagger: its rows FAIL
    # with infinite error and the check still reports every row
    assert run_cli("check", "--L", 200, "--dk", 2, "--dv", 2, "--seed", 104,
                   "--gate-floor", 1e-12, "--chunk", 64) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line for line in lines[:-1]}
    assert rows["chunkwise_C64_vs_recurrent"] == (
        "chunkwise_C64_vs_recurrent max_rel_err=inf tol=1.0e-09 FAIL")
    assert rows["parallel_vs_recurrent"].endswith("PASS")
    assert rows["chunkwise_C1_vs_recurrent"].endswith("PASS")
    assert rows["causality"].endswith("FAIL")
    assert lines[-1].startswith("summary:") and len(rows) == len(lines) - 1


def gla_process(*argv, python_flags=()):
    """Run the CLI as a separate process; returns its CompletedProcess."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *python_flags, "-m", "glakit.cli",
                           *(str(a) for a in argv)],
                          capture_output=True, text=True, env=env, check=False)


def test_check_of_underflowing_chunk_keeps_stderr_empty():
    # the same run as a separate process: its FAIL rows are the whole report,
    # with no RuntimeWarning on stderr
    r = gla_process("check", "--L", 200, "--dk", 2, "--dv", 2, "--seed", 104,
                    "--gate-floor", 1e-12, "--chunk", 64)
    lines = r.stdout.splitlines()
    assert (r.returncode, r.stderr) == (1, "")
    assert len(lines) == 13 and lines[-1] == "summary: passed=5 failed=7 total=12"


@pytest.mark.parametrize("python_flags", [(), ("-W", "error")], ids=["default", "W_error"])
def test_run_of_underflowing_chunk_is_one_input_error(tmp_path, python_flags):
    # the forward's non-finite output is an input error naming its chunk:
    # one error line and exit 2, whatever the interpreter's warning filters
    assert run_cli("gen", "--L", 200, "--dk", 2, "--dv", 2, "--seed", 104,
                   "--gate-floor", 1e-12, "--out", tmp_path / "in") == 0
    r = gla_process("run", "--in", tmp_path / "in", "--out", tmp_path / "out",
                    "--form", "chunkwise", "--chunk", 64, python_flags=python_flags)
    assert r.returncode == 2
    assert r.stderr.startswith("error: non-finite values from chunk 0 (rows 0..63)")
    assert len(r.stderr.splitlines()) == 1, r.stderr


def test_gradcheck_passes_and_flipped_sign_fails(capsys):
    args = ("gradcheck", "--L", 5, "--dk", 2, "--dv", 2, "--seed", 8, "--chunk", 2)
    assert run_cli(*args) == 0
    assert run_cli(*args, "--debug-flip-dlogb") == 1
    out = capsys.readouterr().out
    assert any("dlog_alpha" in line and "FAIL" in line for line in out.splitlines())


def test_bench_small_table(capsys):
    assert run_cli("bench", "--L", 32, "--dk", 4, "--dv", 4, "--seed", 9,
                   "--chunk", 8, "--repeats", 3) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("form")
    assert [l.split()[0] for l in lines[1:]] == [
        "recurrent", "parallel", "chunkwise", "chunkwise_backward"]


@pytest.mark.parametrize("pass_", ["forward", "backward"])
def test_bench_exits_1_when_counters_disagree(monkeypatch, capsys, pass_):
    real = cli.predict_cost

    def one_flop_off(L, dk, dv, plan, policy, p):
        rep = real(L, dk, dv, plan, policy, p)
        return replace(rep, flops=rep.flops + 1) if p == pass_ else rep

    monkeypatch.setattr(cli, "predict_cost", one_flop_off)
    assert run_cli("bench", "--L", 16, "--dk", 2, "--dv", 2, "--chunk", 4, "--repeats", 3) == 1
    assert f"measured {pass_} counters" in capsys.readouterr().err


def test_bench_parallel_timed_at_long_L(capsys):
    # decay range ~ 2048 * |ln 0.5| / 2 ~ 710
    assert run_cli("bench", "--L", 2048, "--dk", 2, "--dv", 2, "--seed", 10,
                   "--chunk", 64, "--gate-floor", 0.5, "--repeats", 3) == 0
    (row,) = [l.split() for l in capsys.readouterr().out.splitlines()
              if l.startswith("parallel")]
    assert row[1] == "2048" and float(row[4]) > 0.0


def test_bench_rejects_low_repeats():
    assert run_cli("bench", "--L", 8, "--dk", 2, "--dv", 2, "--repeats", 2) == 2


def test_cost_subcommand(capsys):
    assert run_cli("cost", "--L", 8, "--dk", 2, "--dv", 2, "--chunk", 4) == 0
    out = capsys.readouterr().out
    assert "forward" in out and "backward" in out and "flops=" in out


def test_config_file_roundtrip(tmp_path):
    gen = tmp_path / "gen"
    run_cli("gen", "--L", 6, "--dk", 2, "--dv", 2, "--seed", 11, "--out", gen)
    text = (gen / "config.txt").read_text()
    assert "L = 6" in text and "seed = 11" in text
    # reuse the echoed config as the base for another command
    assert run_cli("check", "--config", gen / "config.txt", "--chunk", 3) == 0


def test_bad_config_key_exit_2(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("LL = 7\n")
    assert run_cli("check", "--config", p) == 2


@pytest.mark.parametrize("command,line,field", [
    ("gen", "policy = bar", "policy"), ("cost", "kind = foo", "kind"),
    ("check", "form = fast", "form"), ("check", "dk = 3.5", "dk"),
    ("gen", "gate_floor = abc", "gate_floor"), ("cost", "seed =", "seed"),
])
def test_bad_config_name_exit_2_naming_field(tmp_path, capsys, command, line, field):
    p = tmp_path / "cfg.txt"
    p.write_text(f"L = 6\ndk = 2\ndv = 2\n{line}\n")
    extra = ("--out", tmp_path / "g") if command == "gen" else ()
    assert run_cli(command, "--config", p, *extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and field in err
    assert not (tmp_path / "g").exists()


def test_run_reusing_out_keeps_only_its_own_outputs(tmp_path):
    gen, out = tmp_path / "gen", tmp_path / "run"
    run_cli("gen", "--L", 16, "--dk", 2, "--dv", 2, "--seed", 4, "--out", gen)
    for chunk, n_states in ((2, 8), (8, 2)):
        assert run_cli("run", "--in", gen, "--out", out, "--chunk", chunk,
                       "--policy", "materialize") == 0
        assert len(list((out / "states").glob("S_*.glat"))) == n_states
        assert f"state_writes = {n_states}" in (out / "cost.txt").read_text()
    (out / "notes.txt").write_text("kept")
    assert run_cli("run", "--in", gen, "--out", out, "--form", "recurrent") == 0
    assert sorted(p.name for p in out.iterdir()) == ["O.glat", "notes.txt"]


def test_gen_chunk_0_exit_2_writes_nothing(tmp_path, capsys):
    out = tmp_path / "g"
    assert run_cli("gen", "--L", 6, "--chunk", 0, "--out", out) == 2
    assert "chunk must all be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cost_dk_0_exit_2(capsys):
    # cost draws no instance: only the run config stops a zero width
    assert run_cli("cost", "--L", 8, "--dk", 0, "--dv", 2, "--chunk", 4) == 2
    out, err = capsys.readouterr()
    assert out == "" and "L, dk, dv, chunk must all be >= 1" in err


def test_config_gate_floor_out_of_range_exit_2(tmp_path, capsys):
    p = tmp_path / "cfg.txt"
    p.write_text("L = 6\ngate_floor = 1.5\n")
    assert run_cli("cost", "--config", p) == 2
    out, err = capsys.readouterr()
    assert out == "" and "gate_floor must be in (0, 1]" in err


def test_parse_config_skips_comments_and_blanks_and_names_a_line_without_equals():
    cfg = parse_config("# a comment\n\n   \nL = 6\n  # indented comment\ndk = 3\n")
    assert (cfg.L, cfg.dk) == (6, 3)
    with pytest.raises(ValueError, match="config line 3: expected 'key = value', got 'dk 3'"):
        parse_config("L = 6\n# dv = 2\ndk 3\n")
