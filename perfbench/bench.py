"""Workloads, correctness gate, timed loop and metrics of the glakit benchmark.

Everything here calls glakit from the outside through its public functions
(plus the rebinding in ``spans`` for the traced run).  Library functions are
looked up on their modules at call time, so a test can substitute a
sabotaged one and watch the gate catch it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import os
import platform
import shutil
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from glakit import chunkwise, cli, recurrent, tensorfile
from glakit.gates import ChunkPlan, GateSeq
from glakit.recurrent import GlaInstance
from glakit.tensor import SeqTensor

from spans import NullTracer, Tracer

POLICIES = ("materialize", "recompute")
PASSES = ("fwd", "bwd")
GRAD_FIELDS = ("dQ", "dK", "dV", "dlog_alpha", "dlog_beta")
TENSORS = ("Q", "K", "V", "logalpha", "logbeta")
REL_TOL = 1e-9
# Each op of a round runs until it has used this much wall time, so a
# millisecond pass gets many samples per round and a second-long one gets one.
MIN_SLICE_S = 0.2
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 400
WORKDIR = ".perfbench_work"


@dataclass(frozen=True)
class Shape:
    L: int
    dk: int
    dv: int
    C: int


@dataclass(frozen=True)
class Workload:
    name: str
    step: Shape    # gen, chunkwise forward/backward, peak memory
    verify: Shape  # in-process `gla check` + `gla gradcheck`
    kind: str = "general"


# Why each workload exists is in BENCHMARK.json and README.md.  verify_s must
# be reported on every workload; on anchor it runs at a shape small enough to
# leave the step's timing budget intact.
WORKLOADS = {
    "anchor": Workload("anchor", Shape(4096, 64, 64, 64), Shape(16, 4, 4, 4)),
    "oracle": Workload("oracle", Shape(16, 8, 8, 8), Shape(16, 8, 8, 8)),
}


def _arr(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(1e-8, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


def attempt(ledger: Ledger, label: str, call, check, tracer):
    """Run one operation: time call(), then check its result untimed.

    Returns (result, seconds); seconds is None when the operation failed.
    """
    try:
        with tracer.span("op." + label):
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
        problem = check(result)
    except Exception as exc:  # any raise is a failed operation, counted
        ledger.record(label, f"raised {exc!r}")
        return None, None
    ledger.record(label, problem)
    return result, (None if problem else dt)


class Pass:
    """One chunkwise forward or backward under one policy."""

    def __init__(self, pass_: str, mode: str, inst, dO, plan):
        self.pass_ = pass_
        self.label = f"{pass_}.{mode}"
        policy = chunkwise.ChunkPolicy(mode)
        self.predicted = chunkwise.predict_cost(
            inst.L, inst.dk, inst.dv, plan, policy,
            "forward" if pass_ == "fwd" else "backward")
        if pass_ == "fwd":
            self.call = lambda: chunkwise.forward_chunkwise(inst, plan, policy)
        else:
            self.call = lambda: chunkwise.backward_chunkwise(inst, dO, plan, policy)
        self.expected: tuple | None = None  # set once the gate has verified it
        self.cost = None

    def outputs(self, result) -> tuple:
        if self.pass_ == "fwd":
            return (_arr(result[0]),)
        return tuple(_arr(getattr(result[0], f)) for f in GRAD_FIELDS)

    def check(self, result) -> str | None:
        self.cost = result[-1]
        if self.cost != self.predicted:
            return f"counters {self.cost} != predict_cost {self.predicted}"
        if self.expected is not None and not all(
                _same(a, b) for a, b in zip(self.outputs(result), self.expected)):
            return "output differs bitwise from the verified result"
        return None


class Verify:
    """In-process `gla check` then `gla gradcheck`; both must exit 0."""

    label = "verify"

    def __init__(self, wl: Workload, seed: int):
        s = wl.verify
        args = ["--kind", wl.kind, "--L", str(s.L), "--dk", str(s.dk), "--dv", str(s.dv),
                "--chunk", str(s.C), "--seed", str(seed)]
        self.argvs = (["check", *args], ["gradcheck", *args])
        self.expected: str | None = None

    def call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes = tuple(cli.main(argv) for argv in self.argvs)
        return codes, buf.getvalue()

    def check(self, result) -> str | None:
        codes, text = result
        if codes != (0, 0):
            return f"exit codes {codes}:\n{text}"
        if self.expected is None:
            self.expected = text
        elif text != self.expected:
            return "report differs from the first verified report"
        return None


def gen_and_load(wl: Workload, seed: int, workdir: Path, tracer):
    """`gla gen` into a temporary directory, then the five GLAT files back."""
    s = wl.step
    out = Path(tempfile.mkdtemp(dir=workdir))
    try:
        argv = ["gen", "--kind", wl.kind, "--L", str(s.L), "--dk", str(s.dk),
                "--dv", str(s.dv), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gla gen exited {code}")
        with tracer.span("tensorfile.read"):
            arrs = {n: tensorfile.read_tensor(out / f"{n}.glat") for n in TENSORS}
        nbytes = sum((out / f"{n}.glat").stat().st_size for n in TENSORS)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    inst = GlaInstance(SeqTensor(arrs["Q"]), SeqTensor(arrs["K"]), SeqTensor(arrs["V"]),
                       GateSeq(arrs["logalpha"], arrs["logbeta"]))
    return inst, nbytes


def _inputs(inst) -> tuple:
    return (_arr(inst.Q), _arr(inst.K), _arr(inst.V),
            _arr(inst.gates.log_alpha), _arr(inst.gates.log_beta))


def setup(wl: Workload, seed: int, root: Path, ledger: Ledger, tracer):
    """Repeat gen -> load; every repeat must match the first bitwise.

    Returns (instance or None, seconds per successful repeat, bytes written).
    """
    workdir = root / WORKDIR
    workdir.mkdir(exist_ok=True)
    inst = first = None
    times: list[float] = []
    nbytes = 0

    def check(res):
        if first is None or all(_same(a, b) for a, b in zip(_inputs(res[0]), first)):
            return None
        return "loaded instance differs bitwise from the first"

    t_start = time.perf_counter()
    try:
        with pinning() as pin:
            for rep in range(1, SETUP_MAX_REPS + 1):
                pin(rep)
                res, dt = attempt(ledger, "setup",
                                  lambda: gen_and_load(wl, seed, workdir, tracer), check, tracer)
                if dt is not None:
                    times.append(dt)
                    nbytes = res[1]
                    if first is None:
                        inst = res[0]
                        first = _inputs(inst)
                if rep >= SETUP_MIN_REPS and time.perf_counter() - t_start >= SETUP_MIN_S:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return inst, times, nbytes


def make_cotangent(seed: int, L: int, dv: int) -> SeqTensor:
    """dO for the backward, drawn by the benchmark from the workload seed."""
    return SeqTensor(np.random.default_rng(seed).uniform(-1.0, 1.0, (L, dv)))


def gate(inst, dO, passes: dict, verify: Verify, groups: dict, ledger: Ledger) -> dict:
    """Verify every pass once against the recurrent references; untimed.

    Chunkwise O and gradients must match forward_recurrent and
    backward_recurrent_exact to REL_TOL, the two policies must agree
    bitwise, and the counters must equal predict_cost.  Each of these
    verdicts is one operation in the ledger.  The verified outputs become
    the bitwise expectation for every timed repeat.

    These first runs double as the peak-memory pass: each group of pass
    labels runs under one tracemalloc session.  Returns peak MiB per group.
    """
    null = NullTracer()
    outs = {}
    peaks = {}
    for group, labels in groups.items():
        tracemalloc.start()
        try:
            for label in labels:
                p = passes[label]
                res, dt = attempt(ledger, label, p.call, p.check, null)
                if dt is not None:
                    outs[label] = p.outputs(res)
                del res
            peaks[group] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    try:
        ref_O = _arr(recurrent.forward_recurrent(inst).O)
        ref_g = recurrent.backward_recurrent_exact(inst, dO)
        refs = {"fwd": (ref_O,), "bwd": tuple(_arr(getattr(ref_g, f)) for f in GRAD_FIELDS)}
        ledger.record("gate.reference", None)
    except Exception as exc:  # the reference itself is part of the verdict
        ledger.record("gate.reference", f"raised {exc!r}")
        refs = None
    for label in passes:
        pass_ = label.split(".")[0]
        names = ("O",) if pass_ == "fwd" else GRAD_FIELDS
        got = outs.get(label)
        if got is None or refs is None:
            ledger.record(f"gate.{label}", "no verified output to compare")
            continue
        errs = [(name, _rel_err(a, b)) for name, a, b in zip(names, got, refs[pass_])]
        bad = [f"{name} rel err {e:.3e} > {REL_TOL}" for name, e in errs if not e <= REL_TOL]
        ledger.record(f"gate.{label}", "; ".join(bad) or None)
        passes[label].expected = got
    for pass_ in PASSES:
        a, b = outs.get(f"{pass_}.materialize"), outs.get(f"{pass_}.recompute")
        equal = a is not None and b is not None and all(_same(x, y) for x, y in zip(a, b))
        ledger.record(f"gate.policies.{pass_}", None if equal else "policies differ bitwise")
    attempt(ledger, verify.label, verify.call, verify.check, null)
    return peaks


@contextlib.contextmanager
def pinning():
    """Yield pin(i): move this process to the i-th allowed CPU, cyclically.

    On a shared host one CPU can run far slower than another for a minute
    at a time; a run left on it would measure only that.  The original
    affinity is restored on exit.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, allowed)


def measure(ops: list, seconds: float, ledger: Ledger, tracer) -> dict[str, list[float]]:
    """Closed loop, one caller: rounds over every op until `seconds` pass.

    The op order rotates each round so slow drift of the host is spread
    evenly over the ops.  Op j runs round r on CPU j + r, so every op
    alternates CPUs from round to round.  Only successful calls contribute
    a sample.
    """
    samples = {op.label: [] for op in ops}
    gc.collect()
    deadline = time.perf_counter() + seconds
    tried: set[str] = set()
    with pinning() as pin:
        for r in itertools.count():
            k = r % len(ops)
            for j in [*range(k, len(ops)), *range(k)]:
                op = ops[j]
                tried.add(op.label)
                pin(j + r)
                slice_end = time.perf_counter() + MIN_SLICE_S
                while True:
                    _, dt = attempt(ledger, op.label, op.call, op.check, tracer)
                    if dt is not None:
                        samples[op.label].append(dt)
                    if time.perf_counter() >= slice_end:
                        break
                if time.perf_counter() >= deadline and len(tried) == len(ops):
                    return samples


def summarize(xs: list[float]) -> dict:
    """Sample count, median, quartiles and the highest percentile that has
    at least ten samples beyond it (omitted below 20 samples)."""
    if not xs:
        return {"n": 0}
    out = {"n": len(xs), "median": statistics.median(xs)}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        for p in (99, 95, 90, 75, 50):
            if sum(x > cuts[p - 1] for x in xs) >= 10:
                out.update(p_hi=f"p{p}", p_hi_value=cuts[p - 1])
                break
    return out


def _median(xs):
    return statistics.median(xs) if xs else None


def _fastest(xs):
    return min(xs) if xs else None


def _scale(x, k):
    return None if x is None else x * k


def environment(wl: Workload, seed: int, seconds: float, trace: bool,
                outer_gla_threads: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "GLA_THREADS": os.environ.get("GLA_THREADS"),
        "GLA_THREADS_at_launch": outer_gla_threads,
        "workload": wl.name,
        "kind": wl.kind,
        "step_shape": asdict(wl.step),
        "verify_shape": asdict(wl.verify),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 outer_gla_threads: str | None = None) -> dict:
    """One benchmark run.  Returns the result plus env, timings and problems.

    Every setup repeat fails when setup cannot produce an instance, so
    `failed` is then at least 1 and the run reports no metrics.
    """
    ledger = Ledger()
    tracer = Tracer() if trace else NullTracer()
    timings: dict[str, dict] = {}
    if trace:
        with tracer.installed():
            inst, setup_times, nbytes = setup(wl, seed, root, ledger, tracer)
    else:
        inst, setup_times, nbytes = setup(wl, seed, root, ledger, tracer)
    timings["setup_s"] = summarize(setup_times)

    metrics: dict[str, dict] = {}
    if inst is not None:
        plan = ChunkPlan(inst.L, wl.step.C)
        dO = make_cotangent(seed, inst.L, inst.dv)
        passes = {f"{p}.{m}": Pass(p, m, inst, dO, plan) for p in PASSES for m in POLICIES}
        verify = Verify(wl, seed)
        # Untraced: peak over one forward+backward step per policy.
        # Traced: peak per pass.
        groups = ({label: [label] for label in passes} if trace else
                  {m: [f"{p}.{m}" for p in PASSES] for m in POLICIES})
        peaks = gate(inst, dO, passes, verify, groups, ledger)
        ops = [*passes.values(), verify]
        if not trace:
            samples = measure(ops, seconds, ledger, tracer)
            for label, xs in samples.items():
                timings[label] = summarize(xs)
            metrics = end_to_end(setup_times, samples, peaks)
        else:
            untraced = measure(ops, seconds / 2, ledger, NullTracer())
            with tracer.installed():
                traced = measure(ops, seconds / 2, ledger, tracer)
            for label in untraced:
                timings[label] = summarize(untraced[label])
                timings[label + ".traced"] = summarize(traced[label])
            metrics = per_layer(wl, tracer, passes, untraced, traced, peaks,
                                setup_times, nbytes)

    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "env": environment(wl, seed, seconds, trace, outer_gla_threads),
        "timings": timings,
        "problems": ledger.problems,
    }


def end_to_end(setup_times, samples, peaks) -> dict[str, dict]:
    """setup_s is the median repeat; the call timings are the fastest call.

    On a shared host the speed of the CPU drifts by up to 2x in phases of
    30-60 s, so the median of one run depends on which phases the run
    caught; the fastest call of the run is far less sensitive to that.
    """
    m = {"setup_s": (_median(setup_times), "s")}
    for pass_ in PASSES:
        for mode in POLICIES:
            m[f"{pass_}_ms.{mode}"] = (_scale(_fastest(samples[f"{pass_}.{mode}"]), 1e3), "ms")
    for mode in POLICIES:
        m[f"peak_mb.{mode}"] = (peaks[mode], "MB")
    m["verify_s"] = (_fastest(samples["verify"]), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _draws(kind: str, s: Shape) -> int:
    """splitmix64 draws `make_instance` takes: Q, K, V, then the sampled gates."""
    gates = {"general": s.dk + s.dv, "gla_beta_one": s.dk}.get(kind, 0)
    return s.L * (2 * s.dk + s.dv + gates)


def per_layer(wl: Workload, tracer: Tracer, passes: dict, untraced, traced, peaks,
              setup_times, nbytes) -> dict[str, dict]:
    """Per-layer metrics from the traced run's spans and the pass counters.

    Span times are medians over the traced calls; rates and the tracing
    overhead use the fastest call, like the end-to-end timings.  A metric
    whose span could not be bound is reported with value None.
    """
    kids = tracer.children()
    missing = tracer.missing

    def have(*names):
        return not any(n in missing for n in names)

    def under(sp, *names):
        return [c for c in kids.get(sp.sid, []) if c.name in names]

    def dur(sp, *names):
        return sum(c.dur for c in under(sp, *names))

    def med(values, k=1.0, need=()):
        return _scale(_median(values), k) if have(*need) else None

    gates_n = ("gates.cumulative", "gates.chunk_factors")
    sub_n = (*gates_n, "tensor.mm", "tensor.suffix_sum")
    m: dict[str, tuple] = {}

    setups = tracer.named("op.setup")
    m["fixtures.gen_s"] = (med([dur(s, "fixtures.gen") for s in setups], need=["fixtures.gen"]), "s")
    m["fixtures.draws"] = (_draws(wl.kind, wl.step), "count")
    m["tensorfile.write_s"] = (med([dur(s, "tensorfile.write") for s in setups],
                                   need=["tensorfile.write"]), "s")
    m["tensorfile.read_s"] = (med([dur(s, "tensorfile.read") for s in setups]), "s")
    m["tensorfile.bytes"] = (nbytes, "bytes")

    ops = {label: tracer.named("op." + label) for label in passes}
    first = {label: (sps[0] if sps else None) for label, sps in ops.items()}
    calls = [len(under(first[f"{p}.materialize"], *gates_n))
             for p in PASSES if first[f"{p}.materialize"]]
    m["gates.calls"] = (sum(calls) if have(*gates_n) else None, "count")
    for label, p in passes.items():
        sps = ops[label]
        mm_s = [dur(s, "tensor.mm") for s in sps]
        mm_flops = sum(c.work for c in under(first[label], "tensor.mm")) if first[label] else 0
        mm_med = _median(mm_s)
        untraced_fastest = _fastest(untraced[label])
        m[f"gates.decays_ms.{label}"] = (med([dur(s, *gates_n) for s in sps], 1e3, gates_n), "ms")
        m[f"tensor.mm_ms.{label}"] = (med(mm_s, 1e3, ["tensor.mm"]), "ms")
        m[f"tensor.mm_calls.{label}"] = (
            len(under(first[label], "tensor.mm")) if first[label] and have("tensor.mm") else None,
            "count")
        m[f"tensor.mm_flops.{label}"] = (
            mm_flops if have("tensor.mm", "tensor.mm_flops") else None, "flop")
        m[f"tensor.mm_mflops_per_s.{label}"] = (
            mm_flops / mm_med / 1e6 if mm_med and have("tensor.mm", "tensor.mm_flops") else None,
            "Mflop/s")
        m[f"tensor.mm_share.{label}"] = (med([dur(s, "tensor.mm") / s.dur for s in sps],
                                             need=["tensor.mm"]), "ratio")
        m[f"chunkwise.self_ms.{label}"] = (
            med([s.dur - dur(s, *sub_n) for s in sps], 1e3, sub_n), "ms")
        flops = p.cost.flops if p.cost is not None else None
        m[f"chunkwise.flops.{label}"] = (flops, "flop")
        m[f"chunkwise.mflops_per_s.{label}"] = (
            flops / untraced_fastest / 1e6 if flops is not None and untraced_fastest else None,
            "Mflop/s")
        m[f"chunkwise.peak_alloc_mb.{label}"] = (peaks[label], "MB")
    for mode in POLICIES:
        m[f"tensor.suffix_sum_ms.{mode}"] = (
            med([dur(s, "tensor.suffix_sum") for s in ops[f"bwd.{mode}"]], 1e3,
                ["tensor.suffix_sum"]), "ms")
        costs = [passes[f"{p}.{mode}"].cost for p in PASSES]
        if all(c is not None for c in costs):
            writes = sum(c.state_writes for c in costs)
            reads = sum(c.state_reads for c in costs)
            replays = sum(c.recompute_passes for c in costs)
        else:
            writes = reads = replays = None
        m[f"chunkwise.state_writes.{mode}"] = (writes, "count")
        m[f"chunkwise.state_reads.{mode}"] = (reads, "count")
        m[f"chunkwise.recompute_passes.{mode}"] = (replays, "count")
        m[f"chunkwise.state_bytes.{mode}"] = (
            None if writes is None else (writes + reads) * wl.step.dk * wl.step.dv * 8, "bytes")

    verifies = tracer.named("op.verify")
    checks_n = ("checks.equivalence", "checks.causality", "checks.gradients")
    fd = [[s for c in under(v, "checks.gradients") for s in under(c, "recurrent.fd")]
          for v in verifies]
    fd_s = [sum(s.dur for s in spans) for spans in fd]
    fd_need = ["checks.gradients", "recurrent.fd"]
    m["recurrent.fd_s"] = (med(fd_s, need=fd_need), "s")
    m["recurrent.fd_forwards"] = (
        len(under(fd[0][0], "recurrent.fd_forward"))
        if fd and fd[0] and have("recurrent.fd_forward") else None, "count")
    m["recurrent.fd_share"] = (med([f / v.dur for f, v in zip(fd_s, verifies)], need=fd_need),
                               "ratio")
    for key, name in (("recurrent.exact_bwd_ms", "recurrent.exact_bwd"),
                      ("recurrent.fwd_ms", "recurrent.fwd"),
                      ("parallel.fwd_ms", "parallel.fwd"),
                      ("parallel.bwd_ms", "parallel.bwd")):
        m[key] = (med([s.dur for s in tracer.named(name)], 1e3, [name]), "ms")
    for key, name in (("checks.gradients_s", "checks.gradients"),
                      ("checks.equivalence_s", "checks.equivalence"),
                      ("checks.causality_s", "checks.causality")):
        m[key] = (med([dur(v, name) for v in verifies], need=[name]), "s")
    inner_n = ("recurrent.fwd", "recurrent.exact_bwd", "recurrent.fd", "parallel.fwd",
               "parallel.bwd", "chunkwise.fwd", "chunkwise.bwd")
    m["checks.self_s"] = (med([sum(c.dur - dur(c, *inner_n) for c in under(v, *checks_n))
                               for v in verifies], need=(*checks_n, *inner_n)), "s")
    m["cli.self_ms"] = (med([v.dur - dur(v, *checks_n) for v in verifies], 1e3, checks_n), "ms")

    for label in [*passes, "verify"]:
        a, b = _fastest(traced[label]), _fastest(untraced[label])
        m[f"trace.overhead_ms.{label}"] = (
            None if a is None or b is None else (a - b) * 1e3, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
