"""Command-line harness: gen, run, check, gradcheck, bench, cost.

Output is line-oriented and grep-friendly; no interactive UI.  Exit codes:
0 all good, 1 a check failed, 2 input/format error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

from .chunkwise import _MODES, ChunkPolicy, forward_chunkwise, predict_cost
from .checks import check_causality, check_equivalence, check_gradients
from .fixtures import _KINDS, ModelKind, make_instance
from .gates import ChunkPlan, GateSeq
from .parallel import forward_parallel, parallel_forward_cost
from .recurrent import GlaInstance, forward_recurrent, recurrent_forward_cost
from .runconfig import _FORMS, RunConfig, format_config, parse_config
from .tensor import SeqTensor
from .tensorfile import TensorFileError, read_tensor, write_tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

TENSOR_FILES = ("Q", "K", "V", "logalpha", "logbeta")


_FLAGS = {
    "config": dict(type=Path, help="key = value config file to start from"),
    "kind": dict(choices=_KINDS),
    "gamma": dict(type=float),
    "L": dict(type=int),
    "dk": dict(type=int),
    "dv": dict(type=int),
    "seed": dict(type=int),
    "gate_floor": dict(type=float),
    "chunk": dict(type=int),
    "policy": dict(choices=_MODES),
    "form": dict(choices=_FORMS),
    "tol": dict(type=float),
    "grad_tol": dict(type=float),
    "eps": dict(type=float),
}
_INSTANCE = ("kind", "gamma", "L", "dk", "dv", "seed", "gate_floor")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Each subcommand takes only the flags it reads; a --config file may carry any key."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])


def _override(cfg: RunConfig, args) -> RunConfig:
    """Values given as flags replace the config's; the result is validated."""
    for f in fields(cfg):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
    return cfg.validate()


def _config_from_args(args) -> RunConfig:
    return _override(parse_config(args.config.read_text()) if args.config else RunConfig(), args)


def _instance(cfg: RunConfig) -> GlaInstance:
    return make_instance(ModelKind(cfg.kind, cfg.gamma), cfg.L, cfg.dk, cfg.dv,
                         cfg.seed, cfg.gate_floor)


def _chunk_sweep(cfg: RunConfig) -> list[int]:
    sweep = {1, cfg.chunk, max(1, cfg.L // 2), cfg.L}
    for c in range(2, cfg.L):  # smallest non-divisor, if any
        if cfg.L % c:
            sweep.add(c)
            break
    return sorted(sweep)


def _emit_reports(reports) -> int:
    failed = 0
    for r in reports:
        print(r.line())
        failed += 0 if r.passed else 1
    print(f"summary: passed={len(reports) - failed} failed={failed} total={len(reports)}")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    inst = _instance(cfg)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "Q.glat", inst.Q.data)
    write_tensor(out / "K.glat", inst.K.data)
    write_tensor(out / "V.glat", inst.V.data)
    write_tensor(out / "logalpha.glat", inst.gates.log_alpha)
    write_tensor(out / "logbeta.glat", inst.gates.log_beta)
    (out / "config.txt").write_text(format_config(cfg))
    print(f"wrote {len(TENSOR_FILES)} tensors + config.txt to {out}")
    return EXIT_OK


def _load_instance(indir: Path) -> tuple[RunConfig, GlaInstance]:
    cfg_path = indir / "config.txt"
    if not cfg_path.exists():
        raise TensorFileError(f"{cfg_path}: missing config")
    cfg = parse_config(cfg_path.read_text())
    arrs = {}
    for name in TENSOR_FILES:
        path = indir / f"{name}.glat"
        a = arrs[name] = read_tensor(path)
        if a.ndim != 2 or 0 in a.shape:
            raise TensorFileError(f"{path}: needs a non-empty 2-D matrix, got shape {a.shape}")
    try:
        inst = GlaInstance(SeqTensor(arrs["Q"]), SeqTensor(arrs["K"]), SeqTensor(arrs["V"]),
                           GateSeq(arrs["logalpha"], arrs["logbeta"]))
    except ValueError as exc:
        raise ValueError(f"{indir}: {exc}") from exc
    for name in ("L", "dk", "dv"):
        if getattr(cfg, name) != getattr(inst, name):
            raise ValueError(f"{cfg_path}: {name} = {getattr(cfg, name)} but the tensors "
                             f"have {name} = {getattr(inst, name)}")
    return cfg, inst


def cmd_run(args) -> int:
    cfg, inst = _load_instance(args.indir)
    cfg = _override(cfg, args)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    # a reused --out keeps nothing of an earlier run: drop every file run writes
    sdir = out / "states"
    for old in (out / "O.glat", out / "cost.txt", *sdir.glob("S_*.glat")):
        old.unlink(missing_ok=True)
    with contextlib.suppress(OSError):  # absent, or holding files run did not write
        sdir.rmdir()
    cost = states = None
    if cfg.form == "recurrent":
        O = forward_recurrent(inst).O
    elif cfg.form == "parallel":
        O = forward_parallel(inst)
    else:
        plan = ChunkPlan(inst.L, cfg.chunk)
        O, states, cost = forward_chunkwise(inst, plan, ChunkPolicy(cfg.policy))
    if states is not None:
        sdir.mkdir(exist_ok=True)
        for i, st in enumerate(states, start=1):
            write_tensor(sdir / f"S_{i:04d}.glat", st)
        print(f"wrote {len(states)} chunk states to {sdir}")
    write_tensor(out / "O.glat", O.data)
    if cost is not None:
        (out / "cost.txt").write_text(
            f"flops = {cost.flops}\nstate_writes = {cost.state_writes}\n"
            f"state_reads = {cost.state_reads}\nrecompute_passes = {cost.recompute_passes}\n")
    print(f"form={cfg.form} L={inst.L} dk={inst.dk} dv={inst.dv} -> {out / 'O.glat'}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _config_from_args(args)
    inst = _instance(cfg)
    reports = check_equivalence(inst, _chunk_sweep(cfg), tol=cfg.tol)
    if inst.L >= 2:
        reports.append(check_causality(inst, chunk=cfg.chunk))
    return _emit_reports(reports)


def cmd_gradcheck(args) -> int:
    cfg = _config_from_args(args)
    inst = _instance(cfg)
    reports = check_gradients(inst, eps=cfg.eps, tol=cfg.grad_tol, chunk=cfg.chunk,
                              flip_dlogb_sign=args.debug_flip_dlogb)
    return _emit_reports(reports)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cmd_bench(args) -> int:
    if args.repeats < 3:
        print("bench needs --repeats >= 3", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cfg = _config_from_args(args)
    inst = _instance(cfg)
    plan = ChunkPlan(cfg.L, cfg.chunk)
    policy = ChunkPolicy(cfg.policy)
    print("form L C policy median_ms flops state_writes state_reads")

    ms = _median_ms(lambda: forward_recurrent(inst), args.repeats)
    print(f"recurrent {cfg.L} - - {ms:.2f} {recurrent_forward_cost(cfg.L, cfg.dk, cfg.dv)} 0 0")

    ms = _median_ms(lambda: forward_parallel(inst), args.repeats)
    print(f"parallel {cfg.L} - - {ms:.2f} {parallel_forward_cost(cfg.L, cfg.dk, cfg.dv)} 0 0")

    ms = _median_ms(lambda: forward_chunkwise(inst, plan, policy), args.repeats)
    pred = predict_cost(cfg.L, cfg.dk, cfg.dv, plan, policy)
    _, _, measured = forward_chunkwise(inst, plan, policy)
    if measured != pred:
        print(f"error: measured counters {measured} != predicted {pred}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"chunkwise {cfg.L} {cfg.chunk} {policy.mode} {ms:.2f} "
          f"{pred.flops} {pred.state_writes} {pred.state_reads}")
    return EXIT_OK


def cmd_cost(args) -> int:
    cfg = _config_from_args(args)
    plan = ChunkPlan(cfg.L, cfg.chunk)
    policy = ChunkPolicy(cfg.policy)
    for pass_ in ("forward", "backward"):
        c = predict_cost(cfg.L, cfg.dk, cfg.dv, plan, policy, pass_)
        print(f"{pass_} policy={policy.mode} flops={c.flops} state_writes={c.state_writes} "
              f"state_reads={c.state_reads} recompute_passes={c.recompute_passes}")
    print(f"recurrent_forward flops={recurrent_forward_cost(cfg.L, cfg.dk, cfg.dv)}")
    print(f"parallel_forward flops={parallel_forward_cost(cfg.L, cfg.dk, cfg.dv)}")
    return EXIT_OK


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gla", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance tensor files")
    _add_flags(p, "config", *_INSTANCE, "chunk", "policy", "form", "tol", "grad_tol", "eps")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="run one form over tensor files")
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_flags(p, "chunk", "policy", "form")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="equivalence + causality checks")
    _add_flags(p, "config", *_INSTANCE, "chunk", "tol")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gradcheck", help="analytic backward vs finite differences")
    _add_flags(p, "config", *_INSTANCE, "chunk", "grad_tol", "eps")
    p.add_argument("--debug-flip-dlogb", action="store_true",
                   help="negate the analytic dlog_alpha to prove the oracle catches it")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bench", help="wall-clock + cost-model table")
    _add_flags(p, "config", *_INSTANCE, "chunk", "policy")
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("cost", help="print the analytic cost model")
    _add_flags(p, "config", "L", "dk", "dv", "chunk", "policy")
    p.set_defaults(fn=cmd_cost)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TensorFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
