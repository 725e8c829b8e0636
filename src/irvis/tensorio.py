"""Binary tensor files and named-tensor checkpoint containers.

Single tensor layout: magic ``UNIVTNSR``, u32 rank, rank x u64 extents,
little-endian f64 payload.  A checkpoint is a container holding a u32
entry count followed by (u16 name length, utf-8 name, tensor record)
entries; entries are written in sorted-name order so identical parameter
maps serialize to identical bytes.  Every read is bounds-checked: a
truncated, garbled or over-long file raises ``DataError``, and so does a
tensor holding a NaN or an infinity, since no command writes one.  Every
write goes to a temporary file that is then renamed over the target.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"UNIVTNSR"


def _pack_tensor(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    head = MAGIC + struct.pack("<I", arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return head + arr.astype("<f8").tobytes(order="C")


def _unpack(fmt: str, buf: bytes, offset: int) -> tuple[tuple, int]:
    end = offset + struct.calcsize(fmt)
    if end > len(buf):
        raise DataError(f"truncated data at offset {offset}")
    return struct.unpack_from(fmt, buf, offset), end


def _unpack_tensor(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    if buf[offset:offset + 8] != MAGIC:
        raise DataError(f"bad tensor magic at offset {offset}")
    (rank,), offset = _unpack("<I", buf, offset + 8)
    shape, offset = _unpack(f"<{rank}Q", buf, offset)
    count = math.prod(shape)
    if offset + 8 * count > len(buf):
        raise DataError(f"truncated tensor payload at offset {offset}")
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    try:
        arr = arr.reshape(shape)
    except ValueError as exc:  # more dimensions, or a larger extent, than numpy holds
        raise DataError(f"bad tensor shape at offset {offset}: {exc}") from exc
    return arr.astype(np.float64), offset + 8 * count


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise DataError(f"non-finite values in {what}")
    return arr


def _unpack_container(buf: bytes, offset: int, path) -> dict[str, np.ndarray]:
    """Named tensors of one container starting at ``offset``; it must end the file."""
    if buf[offset:offset + 8] != MAGIC:
        raise DataError(f"bad checkpoint magic in {path}")
    (count,), offset = _unpack("<I", buf, offset + 8)
    named: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,), offset = _unpack("<H", buf, offset)
        (raw,), offset = _unpack(f"{nlen}s", buf, offset)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"bad tensor name in {path}: {exc}") from exc
        if name in named:
            raise DataError(f"duplicate tensor {name!r} in {path}")
        arr, offset = _unpack_tensor(buf, offset)
        named[name] = _require_finite(arr, f"tensor {name!r} of {path}")
    if offset != len(buf):
        raise DataError(f"{len(buf) - offset} trailing bytes in {path}")
    return named


def _write_atomic(path, data: bytes) -> None:
    """Write a temporary file beside ``path``, then rename it over ``path``:
    a write that fails part-way leaves any old file whole, no temporary file
    behind and an ``OSError`` that names ``path``."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def write_tensor(path, arr: np.ndarray) -> None:
    _write_atomic(path, _pack_tensor(arr))


def read_tensor(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    arr, offset = _unpack_tensor(buf, 0)
    if offset != len(buf):
        raise DataError(f"{len(buf) - offset} trailing bytes in {path}")
    return _require_finite(arr, str(path))


def checkpoint_bytes(named: dict[str, np.ndarray]) -> bytes:
    out = [MAGIC, struct.pack("<I", len(named))]
    for name in sorted(named):
        enc = name.encode("utf-8")
        out.append(struct.pack("<H", len(enc)))
        out.append(enc)
        out.append(_pack_tensor(named[name]))
    return b"".join(out)


def write_checkpoint(path, named: dict[str, np.ndarray]) -> None:
    _write_atomic(path, checkpoint_bytes(named))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    return _unpack_container(Path(path).read_bytes(), 0, path)


def write_adapter_checkpoint(path, named: dict[str, np.ndarray],
                             rank: int, alpha: float, dropout: float) -> None:
    """Adapter container: plain-text header, its floats in ``repr`` so they
    read back exactly, then a checkpoint blob."""
    header = f"rank={rank}\nalpha={float(alpha)!r}\ndropout={float(dropout)!r}\n\n"
    _write_atomic(path, header.encode("ascii") + checkpoint_bytes(named))


def read_adapter_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    buf = Path(path).read_bytes()
    end = buf.find(b"\n\n")
    if end < 0:
        raise DataError(f"missing adapter header in {path}")
    meta: dict[str, float] = {}
    for line in buf[:end].decode("ascii", errors="replace").splitlines():
        key, _, value = line.partition("=")
        try:
            meta[key] = float(value)  # a line without '=' has an empty value
        except ValueError:
            raise DataError(f"{path}: bad adapter header line {line!r}") from None
    keys = ("rank", "alpha", "dropout")
    if not all(k in meta and math.isfinite(meta[k]) for k in keys):
        raise DataError(f"{path}: adapter header needs finite {', '.join(keys)}")
    if meta["rank"] != int(meta["rank"]) or meta["rank"] < 1:
        raise DataError(f"{path}: adapter rank must be a positive integer")
    return _unpack_container(buf, end + 2, path), meta
