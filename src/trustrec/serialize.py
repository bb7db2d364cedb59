"""Byte-stable binary checkpoint format for pipeline artifacts.

Layout, all little-endian:

    8-byte magic  b"TRECCKP\\x00"
    uint32 format version (currently 1)
    uint32 kind-string length, then that many UTF-8 bytes
    uint32 number of metadata entries, then per entry:
        uint32 key length, key bytes, int64 value
    uint32 number of arrays, then per array:
        uint32 name length, name bytes
        uint32 ndim, int64 shape per dim
        float64 data, row-major

Writing the same arrays and metadata twice produces identical bytes; there
are no timestamps or environment fields.  A checkpoint is written to a
temporary file beside its destination and renamed into place, so the path
holds either a complete checkpoint or nothing.
"""

import contextlib
import math
import os
import struct

import numpy as np

_MAGIC = b"TRECCKP\x00"
_VERSION = 1


class CheckpointError(ValueError):
    """Raised when a file is not a valid checkpoint of the expected kind."""


def _write_str(fh, text):
    raw = text.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_str(fh, size):
    (n,) = struct.unpack("<I", _read_exact(fh, 4, size))
    try:
        return _read_exact(fh, n, size).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{fh.name}: checkpoint string is not UTF-8") from None


def _read_exact(fh, n, size):
    # checked before the read, so that a corrupt length field in a file of
    # ``size`` bytes never asks for more memory than the file holds
    if n > size - fh.tell():
        raise CheckpointError(f"{fh.name}: truncated checkpoint file")
    return fh.read(n)


def save_checkpoint(path, kind, arrays, meta=None):
    """Write ``arrays`` (name -> array-like, stored as float64) and ``meta``
    (name -> int) under the short ASCII tag ``kind``."""
    with replace_on_success(path, "wb") as fh:
        _write_body(fh, kind, arrays, meta or {})


@contextlib.contextmanager
def replace_on_success(path, mode="w"):
    """File handle on ``<path>.<pid>.tmp``, renamed onto ``path`` once the block succeeds.

    If the block raises, the temporary file is removed and ``path`` keeps
    whatever it held before.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_body(fh, kind, arrays, meta):
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", _VERSION))
    _write_str(fh, kind)
    fh.write(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        _write_str(fh, key)
        fh.write(struct.pack("<q", int(meta[key])))
    fh.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        _write_str(fh, name)
        fh.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<q", dim))
        fh.write(arr.tobytes())


def load_checkpoint(path, expect_kind=None):
    """Read a checkpoint; returns (kind, arrays, meta).

    Raises CheckpointError on a bad magic, version, string or shape, on a
    length field that runs past the end of the file, or when ``expect_kind``
    is given and does not match.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, size))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        kind = _read_str(fh, size)
        if expect_kind is not None and kind != expect_kind:
            raise CheckpointError(f"{path}: kind {kind!r}, expected {expect_kind!r}")
        (n_meta,) = struct.unpack("<I", _read_exact(fh, 4, size))
        meta = {}
        for _ in range(n_meta):
            key = _read_str(fh, size)
            (meta[key],) = struct.unpack("<q", _read_exact(fh, 8, size))
        (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4, size))
        arrays = {}
        for _ in range(n_arrays):
            name = _read_str(fh, size)
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, size))
            shape = struct.unpack(f"<{ndim}q", _read_exact(fh, 8 * ndim, size))
            if min(shape, default=0) < 0:
                raise CheckpointError(f"{path}: array {name!r} has a negative dimension")
            data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape), size), dtype="<f8")
            try:
                arrays[name] = data.reshape(shape).copy()
            except ValueError:  # an empty array whose other dimensions overflow
                raise CheckpointError(f"{path}: array {name!r} has an impossible shape") from None
    return kind, arrays, meta
