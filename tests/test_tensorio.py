import errno
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from irvis import tensorio
from irvis.errors import DataError


def test_single_tensor_round_trip(tmp_path):
    arr = np.random.default_rng(0).normal(size=(3, 4, 2))
    path = tmp_path / "t.tnsr"
    tensorio.write_tensor(path, arr)
    assert np.array_equal(tensorio.read_tensor(path), arr)


def test_magic_and_layout(tmp_path):
    path = tmp_path / "t.tnsr"
    tensorio.write_tensor(path, np.zeros((2, 5)))
    raw = path.read_bytes()
    assert raw[:8] == b"UNIVTNSR"
    # u32 rank, two u64 extents, then 10 f64 values
    assert len(raw) == 8 + 4 + 16 + 80


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(DataError):
        tensorio.read_tensor(path)


def test_more_axes_than_numpy_holds_rejected(tmp_path):
    path = tmp_path / "deep.tnsr"
    rank = 65
    path.write_bytes(b"UNIVTNSR" + struct.pack(f"<I{rank}Q", rank, *[1] * rank)
                     + struct.pack("<d", 1.0))
    with pytest.raises(DataError, match="bad tensor shape at offset 532: "):
        tensorio.read_tensor(path)


def test_tensor_with_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.tnsr"
    tensorio.write_tensor(path, np.zeros((2, 3)))
    path.write_bytes(path.read_bytes() + b"\0" * 5)
    with pytest.raises(DataError, match=r"5 trailing bytes in .*t\.tnsr"):
        tensorio.read_tensor(path)


def test_duplicate_tensor_name_rejected(tmp_path):
    # a checkpoint of two entries, both named "w"
    one = tensorio.checkpoint_bytes({"w": np.zeros(2)})
    (count,) = struct.unpack_from("<I", one, 8)
    assert count == 1
    path = tmp_path / "dup.ckpt"
    path.write_bytes(one[:8] + struct.pack("<I", 2) + one[12:] * 2)
    with pytest.raises(DataError, match=r"duplicate tensor 'w' in .*dup\.ckpt"):
        tensorio.read_checkpoint(path)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    named = {"blocks.0.qkv.weight": rng.normal(size=(4, 12)),
             "pos_embed": rng.normal(size=(9, 4)),
             "norm.bias": rng.normal(size=4)}
    path = tmp_path / "ckpt"
    tensorio.write_checkpoint(path, named)
    loaded = tensorio.read_checkpoint(path)
    assert sorted(loaded) == sorted(named)
    for k in named:
        assert np.array_equal(loaded[k], named[k])


def test_checkpoint_bytes_canonical():
    rng = np.random.default_rng(2)
    a = {"x": rng.normal(size=3), "y": rng.normal(size=2)}
    b = {"y": a["y"].copy(), "x": a["x"].copy()}
    assert tensorio.checkpoint_bytes(a) == tensorio.checkpoint_bytes(b)


def test_adapter_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    named = {"blocks.0.qkv.lora_A": rng.normal(size=(8, 32)),
             "blocks.0.qkv.lora_B": np.zeros((96, 8))}
    path = tmp_path / "adapters.ckpt"
    tensorio.write_adapter_checkpoint(path, named, rank=8, alpha=32.0, dropout=0.1)
    loaded, meta = tensorio.read_adapter_checkpoint(path)
    assert meta == {"rank": 8.0, "alpha": 32.0, "dropout": 0.1}
    for k in named:
        assert np.array_equal(loaded[k], named[k])
    # plain-text header is readable before the binary payload
    head = path.read_bytes().split(b"\n\n", 1)[0].decode()
    assert "rank=8" in head and "alpha=32" in head


def test_adapter_header_floats_round_trip_exactly(tmp_path):
    path = tmp_path / "adapters.ckpt"
    named = {"a.lora_A": np.ones((1, 4))}
    tensorio.write_adapter_checkpoint(path, named, rank=1, alpha=32.123456789,
                                      dropout=0.123456789)
    _, meta = tensorio.read_adapter_checkpoint(path)
    assert meta == {"rank": 1.0, "alpha": 32.123456789, "dropout": 0.123456789}
    # a numpy scalar writes as the float it holds
    tensorio.write_adapter_checkpoint(path, named, rank=1, alpha=np.float64(32.0),
                                      dropout=np.float64(0.1))
    assert path.read_bytes().startswith(b"rank=1\nalpha=32.0\ndropout=0.1\n\n")


WRITERS = {
    "tensor": lambda path: tensorio.write_tensor(path, np.ones((64, 64))),
    "checkpoint": lambda path: tensorio.write_checkpoint(path, {"w": np.ones((64, 64))}),
    "adapters": lambda path: tensorio.write_adapter_checkpoint(
        path, {"a.lora_A": np.ones((1, 64))}, rank=1, alpha=1.0, dropout=0.0),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_successful_write_unlinks_nothing(tmp_path, monkeypatch, writer):
    # the rename consumed the temporary file, so there is nothing to remove
    unlinked = []
    monkeypatch.setattr(Path, "unlink", lambda self, missing_ok=False: unlinked.append(self))
    WRITERS[writer](tmp_path / "out.bin")
    assert unlinked == []
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("failure", ["disk full mid-write", "rename fails"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, writer, failure):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old contents")
    if failure == "disk full mid-write":
        real_write = Path.write_bytes

        def write_half(self, data):
            real_write(self, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half)
    else:
        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        WRITERS[writer](path)
    monkeypatch.undo()
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    WRITERS[writer](path)
    assert path.read_bytes() != b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("target", [".", "sub"])
def test_write_onto_a_directory_is_an_os_error(tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    with pytest.raises(OSError):
        tensorio.write_tensor(target, np.zeros(2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("target, code", [("missing/out.bin", errno.ENOENT),
                                          ("afile/out.bin", errno.ENOTDIR),
                                          ("adir", errno.EISDIR)])
def test_write_error_names_the_path_asked_for(tmp_path, monkeypatch, writer, target, code):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_bytes(b"")
    Path("adir").mkdir()
    with pytest.raises(OSError) as caught:
        WRITERS[writer](target)
    assert (caught.value.errno, caught.value.filename) == (code, target)
    assert f"'{target}'" in str(caught.value) and ".tmp" not in str(caught.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list(Path("adir").iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_naming_the_file_and_tensor(tmp_path, value):
    arr = np.arange(6.0).reshape(2, 3)
    arr[1, 2] = value
    tensorio.write_tensor(tmp_path / "t.tnsr", arr)
    with pytest.raises(DataError,
                       match=f"^non-finite values in {re.escape(str(tmp_path / 't.tnsr'))}$"):
        tensorio.read_tensor(tmp_path / "t.tnsr")
    named = {"a": np.ones(2), "b": arr}
    tensorio.write_checkpoint(tmp_path / "c.ckpt", named)
    tensorio.write_adapter_checkpoint(tmp_path / "a.ckpt", named, rank=2, alpha=8.0,
                                      dropout=0.0)
    for path, read in ((tmp_path / "c.ckpt", tensorio.read_checkpoint),
                       (tmp_path / "a.ckpt", tensorio.read_adapter_checkpoint)):
        with pytest.raises(DataError, match=f"^non-finite values in tensor 'b' of "
                                            f"{re.escape(str(path))}$"):
            read(path)
