"""Outside-in spans for the traced run.

The library is not edited.  For the traced run only, the names that
``glakit.cli``, ``glakit.checks``, ``glakit.chunkwise`` and
``glakit.recurrent`` look up at call time are rebound to wrappers that
record a span (name, start, end, parent id) around each call, and the
originals are put back afterwards.  A name that a later version of the
library no longer has is skipped and remembered as missing, so the metrics
that depend on it are reported as absent instead of crashing the run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  Spans nest by call order, so a chunkwise
# pass reached through ``glakit.checks`` carries its own mm spans beneath it.
BINDINGS = (
    ("glakit.cli", "make_instance", "fixtures.gen"),
    ("glakit.cli", "write_tensor", "tensorfile.write"),
    ("glakit.chunkwise", "cumulative_log_decay", "gates.cumulative"),
    ("glakit.chunkwise", "chunk_relative_decays", "gates.chunk_factors"),
    ("glakit.chunkwise", "mm", "tensor.mm"),
    ("glakit.chunkwise", "suffix_sum_arr", "tensor.suffix_sum"),
    ("glakit.cli", "check_equivalence", "checks.equivalence"),
    ("glakit.cli", "check_causality", "checks.causality"),
    ("glakit.cli", "check_gradients", "checks.gradients"),
    ("glakit.checks", "forward_recurrent", "recurrent.fwd"),
    ("glakit.checks", "backward_recurrent_exact", "recurrent.exact_bwd"),
    ("glakit.checks", "backward_recurrent_fd", "recurrent.fd"),
    ("glakit.recurrent", "_loss_raw", "recurrent.fd_forward"),
    ("glakit.checks", "forward_parallel", "parallel.fwd"),
    ("glakit.checks", "backward_parallel", "parallel.bwd"),
    ("glakit.checks", "forward_chunkwise", "chunkwise.fwd"),
    ("glakit.checks", "backward_chunkwise", "chunkwise.bwd"),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "work")

    def __init__(self, sid, name, start, parent, work):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work = work

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; parent is the innermost open span (-1 at top)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.missing: set[str] = set()

    def open(self, name: str, work: int = 0) -> Span:
        sp = Span(len(self.spans), name, 0.0,
                  self._open[-1] if self._open else -1, work)
        self.spans.append(sp)
        self._open.append(sp.sid)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def wrap(self, name: str, fn, mm_flops=None):
        """fn inside a span; with mm_flops, the span's work is the product's flops."""
        def traced(*args, **kwargs):
            work = 0
            if mm_flops is not None:
                a, b = args[:2]
                work = mm_flops(a.shape[0], a.shape[1], b.shape[1])
            sp = self.open(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sp)
        return traced

    @contextmanager
    def installed(self):
        """Rebind every name in BINDINGS that exists; restore them on exit."""
        saved = []
        mm_flops = getattr(_module("glakit.cost"), "mm_flops", None)
        if mm_flops is None:
            self.missing.add("tensor.mm_flops")
        try:
            for modname, attr, name in BINDINGS:
                mod = _module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(
                    name, fn, mm_flops if name == "tensor.mm" else None))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            out.setdefault(sp.parent, []).append(sp)
        return out

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]


class NullTracer:
    """Untraced runs: same span interface, records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None
