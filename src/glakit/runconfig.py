"""Flat key=value run configuration shared by the CLI subcommands."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .chunkwise import ChunkPolicy
from .fixtures import ModelKind
from .tensor import check_sizes

__all__ = ["RunConfig", "parse_config", "format_config"]

_FORMS = ("recurrent", "parallel", "chunkwise")
_CASTS = {"str": str, "int": int, "float": float}  # a field's annotation -> its parser


@dataclass
class RunConfig:
    kind: str = "general"
    gamma: float = 0.9
    L: int = 32
    dk: int = 4
    dv: int = 4
    seed: int = 1
    gate_floor: float = 0.5
    chunk: int = 8
    policy: str = "materialize"
    form: str = "chunkwise"
    tol: float = 1e-9
    grad_tol: float = 1e-6
    eps: float = 1e-5

    def validate(self) -> "RunConfig":
        ModelKind(self.kind, self.gamma)
        ChunkPolicy(self.policy)
        if self.form not in _FORMS:
            raise ValueError(f"form must be one of {_FORMS}, got {self.form!r}")
        check_sizes(L=self.L, dk=self.dk, dv=self.dv, chunk=self.chunk)
        if not (0.0 < self.gate_floor <= 1.0):
            raise ValueError("gate_floor must be in (0, 1]")
        for name in ("tol", "grad_tol"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        return self


def format_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        cast = _CASTS[types[key]]
        try:
            setattr(cfg, key, cast(value))
        except ValueError:
            kind = "an int" if cast is int else "a float"
            raise ValueError(f"config line {lineno}: {key} = {value!r} is not {kind}") from None
    return cfg.validate()
