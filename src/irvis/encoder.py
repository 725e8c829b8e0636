"""Miniature patch-token transformer encoder.

Produces per-patch features (post final LayerNorm) and exports the
last layer's attention maps.  No CLS token: every matrix downstream is
N x N over patch tokens.  Each block is one ``autodiff.block`` node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeMismatchError, require_integers

INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    image_size: int = 16
    patch_size: int = 4
    channels: int = 3
    depth: int = 2
    dim: int = 32
    heads: int = 4
    mlp_ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ("image_size", "patch_size", "channels", "depth", "dim",
                                "heads", "mlp_ratio", "seed"))
        for name in ("image_size", "patch_size", "channels", "depth", "dim",
                     "heads", "mlp_ratio"):
            if not getattr(self, name) >= 1:  # NaN fails it too
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3 to take 3-channel visible and "
                              f"1-channel infrared images, got {self.channels}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not self.seed >= 0:
            raise ConfigError(f"model seed must be nonnegative, got {self.seed}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size ** 2


@dataclass
class EncoderOutput:
    features: Tensor          # (..., N, dim): the images' leading axes, then (N, dim)
    attention_heads: np.ndarray  # the last block's maps, (..., heads, N, N)

    @property
    def attention_last(self) -> np.ndarray:
        """(..., N, N): the last block's maps averaged over heads;
        averaged only when read, as a training step never does."""
        return self.attention_heads.mean(axis=-3)


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) resampled until within 2 std, the usual ViT init."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(cfg: EncoderConfig) -> dict[str, Tensor]:
    """Truncated-normal weights, zero biases, learned position embeddings."""
    rng = np.random.default_rng(cfg.seed)
    p: dict[str, np.ndarray] = {}
    p["patch_embed.weight"] = trunc_normal(rng, (cfg.patch_dim, cfg.dim))
    p["patch_embed.bias"] = np.zeros(cfg.dim)
    p["pos_embed"] = trunc_normal(rng, (cfg.num_patches, cfg.dim))
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        p[f"{pre}.norm1.weight"] = np.ones(cfg.dim)
        p[f"{pre}.norm1.bias"] = np.zeros(cfg.dim)
        p[f"{pre}.qkv.weight"] = trunc_normal(rng, (cfg.dim, 3 * cfg.dim))
        p[f"{pre}.qkv.bias"] = np.zeros(3 * cfg.dim)
        p[f"{pre}.proj.weight"] = trunc_normal(rng, (cfg.dim, cfg.dim))
        p[f"{pre}.proj.bias"] = np.zeros(cfg.dim)
        p[f"{pre}.norm2.weight"] = np.ones(cfg.dim)
        p[f"{pre}.norm2.bias"] = np.zeros(cfg.dim)
        p[f"{pre}.fc1.weight"] = trunc_normal(rng, (cfg.dim, cfg.mlp_ratio * cfg.dim))
        p[f"{pre}.fc1.bias"] = np.zeros(cfg.mlp_ratio * cfg.dim)
        p[f"{pre}.fc2.weight"] = trunc_normal(rng, (cfg.mlp_ratio * cfg.dim, cfg.dim))
        p[f"{pre}.fc2.bias"] = np.zeros(cfg.dim)
    p["norm.weight"] = np.ones(cfg.dim)
    p["norm.bias"] = np.zeros(cfg.dim)
    return {name: Tensor(arr, requires_grad=True) for name, arr in p.items()}


def patchify(img: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """(C, H, W) image to (N, C*P*P) row-major patch matrix; leading axes
    carry through, so (..., C, H, W) gives (..., N, C*P*P)."""
    lead = img.shape[:-3]
    if img.shape[-3:] != (cfg.channels, cfg.image_size, cfg.image_size):
        raise ConfigError(
            f"image shape {img.shape} does not match config "
            f"(...,{cfg.channels},{cfg.image_size},{cfg.image_size})"
        )
    c, p, n = cfg.channels, cfg.patch_size, cfg.image_size // cfg.patch_size
    b = len(lead)
    x = img.reshape(lead + (c, n, p, n, p))
    x = x.transpose(*range(b), b + 1, b + 3, b, b + 2, b + 4)
    return x.reshape(lead + (n * n, cfg.patch_dim))


def encode(img: np.ndarray, params: dict[str, Tensor], cfg: EncoderConfig, *,
           adapters=None, masks=None) -> EncoderOutput:
    """Forward pass; pure in (img, params), deterministic unless ``masks`` is
    passed, which makes the adapters' dropout live.

    ``img`` is one (C, H, W) image or images with any leading axes,
    (..., C, H, W); those give features (..., N, dim) and the last block's
    maps (..., heads, N, N).

    ``masks`` is a training step's block of dropout masks: the images'
    leading shape, (1,) for a single image, then one axis of columns.  Each
    adapted layer takes the next columns, as many as its input holds per
    image, in the order the layers run: ``patch_embed``, then each block's
    ``qkv``, ``proj``, ``fc1`` and ``fc2``.  A generator fills an array in C
    order, so if the block was drawn in one call, each image's row holds,
    segment by segment, what it would have drawn in a pass of its own.
    ``ShapeMismatchError`` unless the block has a row per image and the
    layers use every column.
    """
    patches = patchify(img, cfg)
    adapters = adapters or {}
    if masks is not None:
        rows = patches.shape[:-2] or (1,)
        cols = cfg.num_patches * sum(a.A.shape[1] for a in adapters.values())
        if masks.shape != rows + (cols,):
            raise ShapeMismatchError(f"dropout masks {masks.shape} do not fit images of "
                                     f"leading shape {rows} and adapted layers of "
                                     f"{cols} columns")
    col = 0

    def layer(name, shape):
        """(weight, bias, lora) of layer ``name`` on an input of ``shape``, as
        ``linear`` takes them; an adapter's mask is the block's next columns."""
        nonlocal col
        mask = None
        if masks is not None and name in adapters:
            width = math.prod(shape[-2:])
            mask = masks[..., col:col + width].reshape(shape)
            col += width
        lora = adapters[name].branch(mask) if name in adapters else None
        return params[f"{name}.weight"], params[f"{name}.bias"], lora

    x = ad.linear(patches, *layer("patch_embed", patches.shape))
    x = ad.add(x, params["pos_embed"])
    dh = cfg.dim // cfg.heads
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        hidden = x.shape[:-1] + (params[f"{pre}.fc2.weight"].shape[0],)
        norm1, norm2 = ((params[f"{pre}.{n}.weight"], params[f"{pre}.{n}.bias"])
                        for n in ("norm1", "norm2"))
        qkv, proj, fc1, fc2 = (layer(f"{pre}.{name}", shape)
                               for name, shape in (("qkv", x.shape), ("proj", x.shape),
                                                   ("fc1", x.shape), ("fc2", hidden)))
        x, attn = ad.block(x, norm1, qkv, proj, norm2, fc1, fc2, cfg.heads, dh)
    features = ad.layernorm(x, params["norm.weight"], params["norm.bias"])
    return EncoderOutput(features=ad.check_finite(features, "encode features"),
                         attention_heads=attn)
