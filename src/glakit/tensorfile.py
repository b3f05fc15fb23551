"""Binary tensor files: magic "GLAT", explicit header, little-endian fp64.

Layout: 4-byte magic, u32 version (=1), u32 ndim, u32 dims[ndim],
u32 dtype code (1 = float64), then the row-major payload.  Everything is
little-endian and bit-exact across round trips, which is the whole point:
cross-language comparisons and CLI determinism tests compare raw bytes.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

__all__ = ["TensorFileError", "write_tensor", "read_tensor", "MAGIC", "VERSION", "DTYPE_F64"]

MAGIC = b"GLAT"
VERSION = 1
DTYPE_F64 = 1
MAX_NDIM = 8


class TensorFileError(Exception):
    """Malformed or truncated tensor file."""


def write_tensor(path, arr) -> None:
    """Write the header, then the array's own contiguous <f8 buffer (no payload copy).

    A shape the reader refuses (ndim outside 1..MAX_NDIM, or a dimension
    that does not fit the header's u32) raises before the file is opened.
    """
    a = np.asarray(arr, dtype="<f8")
    if not 1 <= a.ndim <= MAX_NDIM:
        raise TensorFileError(
            f"{path}: cannot write ndim {a.ndim}, the format holds 1..{MAX_NDIM}")
    if max(a.shape) >= 2**32:
        raise TensorFileError(f"{path}: dimension {max(a.shape)} does not fit the header's u32")
    a = np.ascontiguousarray(a)
    header = struct.pack(f"<4sII{a.ndim}II", MAGIC, VERSION, a.ndim, *a.shape, DTYPE_F64)
    with open(path, "wb") as f:
        f.write(header)
        f.write(a)


def read_tensor(path) -> np.ndarray:
    """Parse the header, check the file size against it, then read the
    payload straight into the returned array."""
    p = Path(path)
    try:
        with open(p, "rb") as f:
            return _read_open(p, f)
    except OSError as exc:
        raise TensorFileError(f"{p}: {exc}") from exc


def _read_open(p: Path, f) -> np.ndarray:
    def take(fmt: str):
        size = struct.calcsize(fmt)
        raw = f.read(size)
        if len(raw) != size:
            raise TensorFileError(f"{p}: truncated header")
        return struct.unpack(fmt, raw)

    magic, version, ndim = take("<4sII")
    if magic != MAGIC:
        raise TensorFileError(f"{p}: bad magic {magic!r}")
    if version != VERSION:
        raise TensorFileError(f"{p}: unsupported version {version}")
    if not 1 <= ndim <= MAX_NDIM:
        raise TensorFileError(f"{p}: implausible ndim {ndim}")
    dims = take(f"<{ndim}I")
    (dtype,) = take("<I")
    if dtype != DTYPE_F64:
        raise TensorFileError(f"{p}: unsupported dtype code {dtype}")
    payload = os.fstat(f.fileno()).st_size - f.tell()
    expected = 8 * math.prod(dims)
    if payload != expected:
        raise TensorFileError(f"{p}: payload is {payload} bytes, expected {expected}")
    a = np.empty(dims, dtype="<f8")
    got = f.readinto(a)
    if got != expected:
        raise TensorFileError(f"{p}: short read, {got} of {expected} payload bytes")
    return a
