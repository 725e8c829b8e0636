"""Low-rank adapters: attach, two-path forward, exact merge/unmerge,
and the column-sparsity diagnostic.

Weights are stored (in, k) x (out, d) style: a linear layer computes
``x @ W`` with W of shape (k, d), so the low-rank update contributes
``(alpha/r) * x @ A^T @ B^T`` with B (d, r) and A (r, k).  B starts at
zero, which makes the freshly adapted model bit-identical to the frozen
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import trunc_normal
from .errors import ConfigError, DataError, ShapeMismatchError, require_integers

@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 32.0
    dropout: float = 0.1
    target_modules: tuple[str, ...] = ("qkv", "proj", "fc1", "fc2", "patch_embed")

    def __post_init__(self):
        require_integers(self, ("rank",))
        if not self.rank >= 1:
            raise ConfigError(f"LoRA rank must be >= 1, got {self.rank}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"LoRA dropout must be in [0, 1), got {self.dropout}")
        if not -math.inf < self.alpha < math.inf:
            raise ConfigError(f"LoRA alpha must be finite, got {self.alpha}")
        if not self.target_modules:
            raise ConfigError("LoRA target_modules must name at least one layer")


def dropout_mask(u: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """``(u >= p) / (1 - p)``, the inverted-dropout mask of uniform draws
    ``u``, byte for byte: a kept entry is 1 / (1 - p) rounded once either
    way, and multiplying skips the divide.  Elementwise, so the mask of a
    block of draws, cut into segments, is the mask of each segment.  It is
    written to ``out`` if given, which may be ``u`` itself: the comparison
    writes its 0.0s and 1.0s there and the scale multiplies them in place,
    with no bool temporary."""
    out = np.greater_equal(u, p, out=np.empty(np.shape(u)) if out is None else out)
    out *= 1.0 / (1.0 - p)
    return out


@dataclass
class LoraAdapter:
    B: Tensor  # (d, r), zero at init; an array when no step trains it
    A: Tensor  # (r, k), Gaussian at init; its rows are the rank
    alpha: float

    @property
    def scaling(self) -> float:
        return self.alpha / self.A.shape[0]

    def branch(self, mask: np.ndarray | None = None) -> tuple:
        """``(A, B, scale, mask)``: the operands of this adapter's branch for
        ``ad.linear``.  Dropout is live iff ``mask``, an array of the input's
        shape, is passed."""
        return self.A, self.B, self.scaling, mask

    def delta(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Adapter branch (alpha/r) * (x * mask) A^T B^T: the adapted layer on
        a zero base weight and bias."""
        w = np.zeros((self.A.shape[1], self.B.shape[0]))
        return ad.linear(x, w, np.zeros(w.shape[1]), self.branch(mask))

    def update_matrix(self) -> np.ndarray:
        """(k, d) matrix added to W by merging."""
        return self.scaling * (ad._data(self.B) @ ad._data(self.A)).T


def forward_adapted(x, w, adapter: LoraAdapter) -> Tensor:
    """Two-path forward x W + adapter branch, without dropout (a zero bias);
    ``x`` and ``w`` may be constant arrays, and gradients reach B and A only."""
    zero = np.zeros(adapter.B.shape[0])
    return ad.check_finite(ad.linear(x, w, zero, adapter.branch()), "adapted forward")


def _apply_update(op, w: np.ndarray, adapter: LoraAdapter, what: str) -> np.ndarray:
    """``op(W, update)`` as a new array; ``what`` names the call and W in
    the shape error."""
    upd = adapter.update_matrix()
    if upd.shape != w.shape:
        raise ShapeMismatchError(f"{what} {w.shape} vs update {upd.shape}")
    return op(w, upd)


def merge(w: np.ndarray, adapter: LoraAdapter) -> np.ndarray:
    """W + (alpha/r) (B A)^T as a new array; W itself is untouched."""
    return _apply_update(np.add, w, adapter, "merge shape mismatch: W")


def unmerge(w_star: np.ndarray, adapter: LoraAdapter) -> np.ndarray:
    """W* - (alpha/r) (B A)^T as a new array, the inverse of ``merge``."""
    return _apply_update(np.subtract, w_star, adapter, "unmerge shape mismatch: W*")


def attach(params: dict[str, Tensor], cfg: LoraConfig,
           seed: int = 0) -> dict[str, LoraAdapter]:
    """Freeze the base parameters and hang adapters on matching matrices.

    Position embeddings stay trainable alongside the adapters; everything
    else in the base parameter set is frozen.
    """
    rng = np.random.default_rng(seed)
    adapters: dict[str, LoraAdapter] = {}
    matched = {pat: False for pat in cfg.target_modules}
    for name in sorted(params):
        if not name.endswith(".weight"):
            continue
        target = name[:-len(".weight")]
        leaf = target.rsplit(".", 1)[-1]
        if leaf not in cfg.target_modules:
            continue
        matched[leaf] = True
        shape = params[name].shape
        if len(shape) != 2:
            raise ConfigError(f"LoRA target {target!r} is not a matrix: shape {shape}")
        k, d = shape
        if cfg.rank > min(d, k):
            raise ConfigError(
                f"rank {cfg.rank} exceeds min dim of {target} ({min(d, k)})"
            )
        adapters[target] = LoraAdapter(
            B=Tensor(np.zeros((d, cfg.rank)), requires_grad=True),
            A=Tensor(trunc_normal(rng, (cfg.rank, k)), requires_grad=True),
            alpha=cfg.alpha,
        )
    missing = [pat for pat, ok in matched.items() if not ok]
    if missing:
        raise ConfigError(f"target patterns matched no parameter: {missing}")
    for name, t in params.items():
        t.requires_grad = name == "pos_embed"
    return adapters


def adapter_tensors(adapters: dict[str, LoraAdapter]) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for target, a in sorted(adapters.items()):
        out[f"{target}.lora_A"] = a.A
        out[f"{target}.lora_B"] = a.B
    return out


def adapters_from_tensors(named: dict[str, np.ndarray], rank: int,
                          alpha: float) -> dict[str, LoraAdapter]:
    """The inverse of ``adapter_tensors``.  ``DataError`` unless each
    ``<target>`` has a ``lora_A`` (rank, k) and a ``lora_B`` (d, rank), and
    no other name is present."""
    adapters: dict[str, LoraAdapter] = {}
    for target in sorted({name.rsplit(".lora_", 1)[0] for name in named}):
        a, b = named.get(f"{target}.lora_A"), named.get(f"{target}.lora_B")
        if (a is None or b is None or a.ndim != 2 or b.ndim != 2
                or (a.shape[0], b.shape[1]) != (rank, rank)):
            raise DataError(f"adapter {target!r} lacks rank-{rank} lora_A and lora_B")
        adapters[target] = LoraAdapter(B=b, A=a, alpha=alpha)
    extra = sorted(set(named) - set(adapter_tensors(adapters)))
    if extra:
        raise DataError(f"unexpected adapter tensors {extra}")
    return adapters


def _gini(values: np.ndarray) -> float:
    total = values.sum()
    if total == 0.0:
        return 0.0
    diffs = np.abs(values[:, None] - values[None, :]).sum()
    return float(diffs / (2.0 * values.size * total))


def sparsity_report(adapters: dict[str, LoraAdapter]) -> dict[str, dict]:
    """Per-adapter column norms of B, row norms of A, and a Gini coefficient
    over the per-rank-component magnitudes |b_j| * |a_j|."""
    report: dict[str, dict] = {}
    for target, a in sorted(adapters.items()):
        b_cols = np.linalg.norm(ad._data(a.B), axis=0)
        a_rows = np.linalg.norm(ad._data(a.A), axis=1)
        report[target] = {
            "b_column_norms": b_cols,
            "a_row_norms": a_rows,
            "gini": _gini(b_cols * a_rows),
        }
    return report
