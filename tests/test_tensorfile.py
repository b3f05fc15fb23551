"""Binary tensor format: bitwise round trips and format validation."""

import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from glakit import TensorFileError, read_tensor, write_tensor
from glakit.tensorfile import DTYPE_F64, MAGIC, VERSION


def roundtrip(tmp_path, arr):
    p = tmp_path / "t.glat"
    write_tensor(p, arr)
    return p, read_tensor(p)


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (4, 2), (7, 3), (1, 16)):
        a = rng.uniform(-1e6, 1e6, shape)
        _, b = roundtrip(tmp_path, a)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_roundtrip_preserves_tricky_values(tmp_path):
    a = np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.2345678901234567e-200]])
    _, b = roundtrip(tmp_path, a)
    assert a.tobytes() == b.tobytes()


def test_header_layout(tmp_path):
    a = np.arange(8.0).reshape(4, 2)
    p, _ = roundtrip(tmp_path, a)
    buf = p.read_bytes()
    magic, version, ndim = struct.unpack_from("<4sII", buf, 0)
    assert magic == MAGIC and version == VERSION and ndim == 2
    dims = struct.unpack_from("<2I", buf, 12)
    assert dims == (4, 2)
    (dtype,) = struct.unpack_from("<I", buf, 20)
    assert dtype == DTYPE_F64
    assert len(buf) == 24 + 8 * a.size  # header + payload


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.glat"
    write_tensor(p, np.ones((2, 2)))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="bad.glat"):
        read_tensor(p)


def test_bad_version_and_dtype(tmp_path):
    p = tmp_path / "v.glat"
    write_tensor(p, np.ones((2, 2)))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 4, 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="version"):
        read_tensor(p)

    write_tensor(p, np.ones((2, 2)))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 20, 7)
    p.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="dtype"):
        read_tensor(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "short.glat"
    write_tensor(p, np.ones((3, 3)))
    buf = p.read_bytes()
    p.write_bytes(buf[:-8])
    with pytest.raises(TensorFileError, match="payload"):
        read_tensor(p)


def test_missing_file(tmp_path):
    with pytest.raises(TensorFileError):
        read_tensor(tmp_path / "absent.glat")


def test_trailing_bytes(tmp_path):
    p = tmp_path / "long.glat"
    write_tensor(p, np.ones((3, 3)))
    with open(p, "ab") as f:
        f.write(b"\0")
    with pytest.raises(TensorFileError, match="long.glat.*payload"):
        read_tensor(p)


@pytest.mark.parametrize("keep", [0, 3, 12, 19, 23])
def test_truncated_header(tmp_path, keep):
    p = tmp_path / "head.glat"
    write_tensor(p, np.ones((2, 2)))
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(TensorFileError, match="head.glat.*truncated header"):
        read_tensor(p)


def test_directory_path(tmp_path):
    d = tmp_path / "dir.glat"
    d.mkdir()
    with pytest.raises(TensorFileError, match="dir.glat"):
        read_tensor(d)


def test_huge_dims_rejected_before_allocating(tmp_path):
    # 28 bytes whose header claims (2^31-1)^2 doubles: the size check must
    # fire before the 2^65-byte array is asked for
    p = tmp_path / "huge.glat"
    dim = 2**31 - 1
    p.write_bytes(struct.pack("<4sIIIII", MAGIC, VERSION, 2, dim, dim, DTYPE_F64) + bytes(4))
    # a line tracer (coverage, a line recorder) allocates on every line it
    # sees, which tracemalloc would book to the read: suspend it meanwhile
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        with pytest.raises(TensorFileError, match="huge.glat.*payload"):
            read_tensor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
    assert peak < 64 * 1024, peak


def test_short_read(tmp_path, monkeypatch):
    # the file shrinks between the size check and the payload read
    p = tmp_path / "shrunk.glat"
    write_tensor(p, np.ones((3, 3)))
    p.write_bytes(p.read_bytes()[:-8])
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        tuple(v + 8 if i == 6 else v for i, v in enumerate(real(fd)))))
    with pytest.raises(TensorFileError, match="shrunk.glat.*short read"):
        read_tensor(p)


def test_read_returns_owned_writable_array(tmp_path):
    _, b = roundtrip(tmp_path, np.arange(12.0).reshape(3, 4))
    assert b.flags.writeable and b.flags.owndata and b.flags.c_contiguous
    assert b.base is None
    b[0, 0] = -1.0


@pytest.mark.parametrize("make, match", [
    (lambda: np.zeros((1,) * 9), "ndim 9"),
    (lambda: np.float64(1.5), "ndim 0"),   # would come back as shape (1,)
    (lambda: np.zeros((2**32, 0)), "dimension 4294967296"),
], ids=["9-D", "0-D", "u32-overflow"])
def test_write_refuses_shapes_the_reader_refuses(tmp_path, make, match):
    p = tmp_path / "bad.glat"
    with pytest.raises(TensorFileError, match=f"bad.glat.*{match}"):
        write_tensor(p, make())
    assert not p.exists()


def _header(shape):
    return struct.pack(f"<4sII{len(shape)}II", MAGIC, VERSION, len(shape), *shape, DTYPE_F64)


@pytest.mark.parametrize("ndim", [0, 9])
def test_implausible_ndim_in_header(tmp_path, ndim):
    p = tmp_path / "n.glat"
    p.write_bytes(_header((1,) * ndim) + b"\0" * 8)
    with pytest.raises(TensorFileError, match=f"n.glat: implausible ndim {ndim}"):
        read_tensor(p)


@pytest.mark.parametrize("make", [
    lambda a: a[:, ::2],
    lambda a: np.asfortranarray(a),
    lambda a: a.astype(np.float32),
    lambda a: a.astype(">f8"),
], ids=["strided", "fortran", "float32", "big-endian"])
def test_awkward_inputs_write_canonical_bytes(tmp_path, make):
    a = make(np.random.default_rng(3).uniform(-1, 1, (5, 6)))
    p = tmp_path / "a.glat"
    write_tensor(p, a)
    assert p.read_bytes() == _header(a.shape) + np.ascontiguousarray(a, "<f8").tobytes()


L_BIG, D_BIG = 4096, 64
PAYLOAD = L_BIG * D_BIG * 8


def _warm_peak(fn):
    fn()  # one-time allocations outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_streams_from_the_array(tmp_path):
    a = np.random.default_rng(4).uniform(-1, 1, (L_BIG, D_BIG))
    peak = _warm_peak(lambda: write_tensor(tmp_path / "w.glat", a))
    assert peak <= 0.05 * PAYLOAD, peak / PAYLOAD


def test_read_streams_into_the_array(tmp_path):
    p = tmp_path / "r.glat"
    write_tensor(p, np.random.default_rng(5).uniform(-1, 1, (L_BIG, D_BIG)))
    peak = _warm_peak(lambda: read_tensor(p))
    assert peak <= 1.05 * PAYLOAD, peak / PAYLOAD
