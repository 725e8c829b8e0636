"""Aligned visible/infrared pairs: synthetic scene rendering and the scene
sets built from it (pretraining pairs, labeled probe scenes), PPM/PGM
codecs, manifests, and batching.  Images are plain float arrays in [0, 1].

A synthetic scene is its palette plus its objects.  The palette maps each
class to its look, ``{"color": (r, g, b), "heat": h, "kind": shape}``, and
each object names its class and where it sits.  The generator bakes in the
modality asymmetry the training loop relies on: the visible channel carries
the class's color and is scaled by an illumination factor, the infrared
channel carries its heat and is illumination-invariant.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class SceneObject:
    cls: str  # a key of the scene's palette
    cx: float
    cy: float
    size: float


@dataclass(frozen=True)
class SceneSpec:
    """One geometry for both modalities: each object takes its color, heat
    and kind ("circle" | "square" | "bar") from ``palette[obj.cls]``."""
    height: int = 16
    width: int = 16
    objects: tuple[SceneObject, ...] = ()
    palette: dict = field(default_factory=dict)  # cls -> {"color", "heat", "kind"}
    noise_visible: float = 0.0
    noise_infrared: float = 0.0
    illumination: float = 1.0


BACKGROUND_COLOR = (0.35, 0.4, 0.3)
BACKGROUND_HEAT = 0.15
_BACKGROUND = np.array((*BACKGROUND_COLOR, BACKGROUND_HEAT))

# class -> color, heat and object kind: the multi-object scenes of ``gen-data``
SCENE_CLASSES = {
    "vehicle": {"color": (0.8, 0.15, 0.1), "heat": 0.9, "kind": "square"},
    "person": {"color": (0.2, 0.3, 0.85), "heat": 0.75, "kind": "circle"},
    "plant": {"color": (0.15, 0.7, 0.2), "heat": 0.25, "kind": "bar"},
}
# the two-class palette of the probes and of in-process pretraining pairs
PROBE_CLASSES = {
    "vehicle": {"color": (0.85, 0.2, 0.1), "heat": 0.7, "kind": "square"},
    "person": {"color": (0.2, 0.3, 0.85), "heat": 0.55, "kind": "circle"},
}


@dataclass
class PairedSample:
    visible: np.ndarray   # (3, H, W) in [0,1]
    infrared: np.ndarray  # (1, H, W) in [0,1]
    scene_id: str


@functools.lru_cache(maxsize=8)
def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinate of every pixel as floats, built once per
    image size and read-only, since every caller shares it."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    yy.flags.writeable = xx.flags.writeable = False
    return yy, xx


def _object_mask(obj: SceneObject, kind: str, h: int, w: int) -> np.ndarray:
    yy, xx = _pixel_grid(h, w)
    if kind == "circle":
        return (xx - obj.cx) ** 2 + (yy - obj.cy) ** 2 <= obj.size ** 2
    if kind == "square":
        return (np.abs(xx - obj.cx) <= obj.size) & (np.abs(yy - obj.cy) <= obj.size)
    if kind == "bar":
        return (np.abs(yy - obj.cy) <= obj.size / 2.0) & (np.abs(xx - obj.cx) <= 2.5 * obj.size)
    raise ConfigError(f"unknown object kind {kind!r}")


def gen_scene(spec: SceneSpec, seed: int, scene_id: str = "synthetic") -> PairedSample:
    """Render the same geometry into both modalities, deterministically."""
    h, w = spec.height, spec.width
    for obj in spec.objects:
        if not (0 <= obj.cx < w and 0 <= obj.cy < h):
            raise ConfigError(f"object center ({obj.cx},{obj.cy}) outside {w}x{h} image")
    rng = np.random.default_rng(seed)
    # one buffer, visible in channels 0-2 and infrared in channel 3, so each
    # object is painted, and the whole pair clipped, in one pass
    pair = np.empty((4, h, w))
    pair[:] = _BACKGROUND[:, None, None]
    for obj in spec.objects:
        look = spec.palette[obj.cls]
        value = np.array((*look["color"], look["heat"]))
        np.copyto(pair, value[:, None, None], where=_object_mask(obj, look["kind"], h, w))
    visible, infrared = pair[:3], pair[3:]
    visible *= spec.illumination
    if spec.noise_visible > 0.0:
        visible += rng.normal(0.0, spec.noise_visible, visible.shape)
    if spec.noise_infrared > 0.0:
        infrared += rng.normal(0.0, spec.noise_infrared, infrared.shape)
    np.clip(pair, 0.0, 1.0, out=pair)
    return PairedSample(visible=visible, infrared=infrared, scene_id=scene_id)


def night_count(n: int, night_fraction: float) -> int:
    """How many of ``n`` generated scenes are night scenes (taken from the end)."""
    if not 0.0 <= night_fraction <= 1.0:  # NaN fails it too
        raise ConfigError(f"night_fraction must be in [0, 1], got {night_fraction}")
    return int(round(n * night_fraction))


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))`` by numpy's own formula for it, which
    draws the same double and costs a quarter as much per scalar call."""
    return low + (high - low) * rng.random()


def _place(rng: np.random.Generator, cls: str, min_size: float,
           height: int, width: int) -> SceneObject:
    """An object of class ``cls`` at a random size and a center that keeps it
    inside the image."""
    max_size = min(height, width) / 4.0
    if max_size < min_size:
        raise ConfigError(f"a {width}x{height} image is too small for these synthetic "
                          f"scenes: both sides must be at least {4.0 * min_size:g}")
    size = _uniform(rng, min_size, max_size)
    return SceneObject(
        cls=cls,
        cx=_uniform(rng, size, width - 1 - size),
        cy=_uniform(rng, size, height - 1 - size),
        size=size,
    )


def random_scene_spec(rng: np.random.Generator, *, height: int = 16, width: int = 16,
                      classes: dict = SCENE_CLASSES,
                      illumination: float = 1.0) -> SceneSpec:
    """Sample a plausible scene: one to three objects from a class palette."""
    names = sorted(classes)
    objects = tuple(_place(rng, names[int(rng.integers(len(names)))], 1.5, height, width)
                    for _ in range(int(rng.integers(1, 4))))
    return SceneSpec(height=height, width=width, objects=objects, palette=classes,
                     noise_visible=0.02, noise_infrared=0.03, illumination=illumination)


def make_pretrain_pairs(n: int, seed: int, *, height: int = 16, width: int = 16,
                        night_fraction: float = 0.0, classes: dict = PROBE_CLASSES):
    """``n`` unlabeled multi-object pairs, the last ``night_count`` of them at
    night (illumination 0.1)."""
    rng = np.random.default_rng(seed)
    n_night = night_count(n, night_fraction)
    samples = []
    for i in range(n):
        spec = random_scene_spec(rng, height=height, width=width, classes=classes,
                                 illumination=0.1 if i >= n - n_night else 1.0)
        samples.append(gen_scene(spec, seed=seed * 99991 + i, scene_id=f"pair-{i:05d}"))
    return samples


def make_labeled_scenes(n: int, seed: int, *, height: int = 16, width: int = 16):
    """Single-object scenes of ``PROBE_CLASSES``, with the object class as label."""
    rng = np.random.default_rng(seed)
    names = sorted(PROBE_CLASSES)
    samples, labels = [], []
    for i in range(n):
        # period-2 blocks so the probe's even/odd split sees both classes
        cls = names[(i // 2) % len(names)]
        spec = SceneSpec(height=height, width=width,
                         objects=(_place(rng, cls, 2.0, height, width),),
                         palette=PROBE_CLASSES, noise_visible=0.05, noise_infrared=0.08)
        samples.append(gen_scene(spec, seed=seed * 100003 + i, scene_id=f"probe-{i}"))
        labels.append(cls)
    return samples, labels


# -- PPM (P6) / PGM (P5) codecs, 8-bit --------------------------------


def _write_pnm(path, magic: str, img: np.ndarray) -> None:
    """(C, H, W) floats in [0,1] to a binary ``magic`` file, a pixel's C
    samples side by side."""
    _, h, w = img.shape
    u8 = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        f.write(u8.transpose(1, 2, 0).tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """(3, H, W) floats in [0,1] to binary P6."""
    _write_pnm(path, "P6", img)


def write_pgm(path, img: np.ndarray) -> None:
    """(1, H, W) floats in [0,1] to binary P5."""
    _write_pnm(path, "P5", img)


def _read_pnm_header(f, magic: bytes, path) -> tuple[int, int]:
    def token():
        tok = b""
        while True:
            ch = f.read(1)
            if not ch:
                raise DataError(f"truncated header in {path}")
            if ch.isspace():
                if tok:
                    return tok
                continue
            if ch == b"#":
                f.readline()
                continue
            tok += ch

    if token() != magic:
        raise DataError(f"{path}: expected {magic.decode()} magic")
    fields = [token() for _ in range(3)]
    if not all(f.isdigit() for f in fields):
        raise DataError(f"{path}: non-numeric header field in {fields}")
    w, h, maxval = map(int, fields)
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad image size {w}x{h}")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit maxval 255 supported, got {maxval}")
    return w, h


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """(channels, H, W) floats in [0,1] from an 8-bit binary PNM file."""
    with open(path, "rb") as f:
        w, h = _read_pnm_header(f, magic, path)
        size = channels * w * h
        # checked before reading, so a huge declared size allocates nothing
        held = os.fstat(f.fileno()).st_size - f.tell()
        if held != size:
            what = "truncated" if held < size else "trailing bytes after"
            raise DataError(f"{path}: {what} pixel payload "
                            f"({size} bytes declared, {held} in the file)")
        raw = f.read(size)
    u8 = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, channels)
    return u8.transpose(2, 0, 1).astype(np.float64) / 255.0


def read_ppm(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)


# -- manifests ---------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    scene_id: str
    visible_path: str
    infrared_path: str
    sequence_id: str


def read_manifest(path) -> list[ManifestEntry]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    entries, first = [], {}  # scene id -> the line that gave it
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields")
        # the id names the scene's output files, so it must be a plain file name
        if parts[0] in ("", ".", "..") or "/" in parts[0] or "\0" in parts[0]:
            raise DataError(f"{path}:{lineno}: scene id {parts[0]!r} is not a file name")
        if first.setdefault(parts[0], lineno) != lineno:
            raise DataError(f"{path}:{lineno}: scene id {parts[0]!r} repeats line "
                            f"{first[parts[0]]}")
        entries.append(ManifestEntry(*parts))
    return entries


def write_manifest(path, entries) -> None:
    lines = [
        f"{e.scene_id}\t{e.visible_path}\t{e.infrared_path}\t{e.sequence_id}"
        for e in entries
    ]
    Path(path).write_text("".join(line + "\n" for line in lines))


def load_pairs(manifest_path):
    """Stream PairedSamples in manifest order; misaligned pairs are rejected."""
    root = Path(manifest_path).parent
    for entry in read_manifest(manifest_path):
        vis_path = root / entry.visible_path
        ir_path = root / entry.infrared_path
        for p in (vis_path, ir_path):
            if not p.exists():
                raise DataError(f"{entry.scene_id}: missing file {p}")
        visible = read_ppm(vis_path)
        infrared = read_pgm(ir_path)
        if visible.shape[1:] != infrared.shape[1:]:
            raise DataError(
                f"{entry.scene_id}: resolution mismatch "
                f"{visible.shape[1:]} vs {infrared.shape[1:]}"
            )
        yield PairedSample(visible=visible, infrared=infrared, scene_id=entry.scene_id)


def batch(samples, size: int, seed: int):
    """Seeded shuffle, then fixed-size batches; the final partial batch is kept."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    items = list(samples)
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = [items[i] for i in order]
    for start in range(0, len(shuffled), size):
        yield shuffled[start:start + size]
