import errno
import os
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
