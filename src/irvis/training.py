"""Dual-branch training loop: frozen teacher, trainable student fed both
modalities, AdamW with linear warmup + cosine decay, and the
catastrophic-forgetting probe grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import pccl
from .autodiff import Tensor, check_finite, check_grads_finite
# the scene builders are also looked up here, by the CLI and the benchmark
from .data import make_labeled_scenes, make_pretrain_pairs
from .encoder import EncoderConfig, encode, init_params
from .errors import ConfigError, DataError, NumericError, require_integers
from .lora import LoraConfig, adapter_tensors, attach, dropout_mask

LOSS_KINDS = tuple(pccl.LOSSES)

ADAM_EPS = 1e-8
PROBE_RIDGE = 1e-3


@dataclass
class TrainConfig:
    epochs: int = 4
    warmup_epochs: int = 1
    base_lr: float = 1.5e-4
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    batch_size: int = 4
    tau: float = pccl.DEFAULT_TAU
    gamma: float = pccl.DEFAULT_GAMMA
    alpha: float = 1.0
    beta: float = 1.0
    lora: LoraConfig | None = None
    loss_kind: str = "pccl"
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ("epochs", "warmup_epochs", "batch_size", "seed"))
        # comparisons are written so that NaN fails them too
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ConfigError(f"need 0 <= warmup_epochs <= epochs, got "
                              f"{self.warmup_epochs} and {self.epochs}")
        if not (0.0 < self.base_lr < math.inf and self.batch_size >= 1):
            raise ConfigError("learning rate and batch size must be positive, "
                              "and the learning rate finite")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be nonnegative and finite, "
                              f"got {self.weight_decay}")
        try:
            betas_ok = len(self.betas) == 2 and all(0.0 <= b < 1.0 for b in self.betas)
        except TypeError:  # not a sequence, or not of numbers
            betas_ok = False
        if not betas_ok:
            raise ConfigError(f"betas must be a pair of values in [0, 1), got {self.betas!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ConfigError(f"alpha and beta must be nonnegative and finite, got "
                              f"{self.alpha} and {self.beta}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss_kind {self.loss_kind!r}")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class TrainState:
    step: int
    params: dict[str, Tensor]
    adapters: dict | None
    # AdamW's (m, v) over the trainable tensors laid end to end in name order
    moments: tuple[np.ndarray, np.ndarray] | None = None
    log: list[dict] = field(default_factory=list)


def lr_at(step: int, cfg: TrainConfig, steps_per_epoch: int) -> float:
    """Linear warmup from 0 to base_lr over ``warmup_epochs`` epochs of
    ``steps_per_epoch`` steps each, then cosine decay to 0 at the last step."""
    warmup = cfg.warmup_epochs * steps_per_epoch
    total = cfg.epochs * steps_per_epoch
    if step < warmup:
        return cfg.base_lr * step / warmup
    if step >= total:
        return 0.0
    frac = (step - warmup) / (total - warmup)
    return cfg.base_lr * 0.5 * (1.0 + np.cos(np.pi * frac))


def init_state(params: dict[str, Tensor], adapters: dict | None = None) -> TrainState:
    return TrainState(step=0, params=params, adapters=adapters)


def frozen_teacher(enc_cfg: EncoderConfig) -> dict[str, Tensor]:
    """Freshly initialized encoder parameters with gradients switched off."""
    teacher = init_params(enc_cfg)
    for t in teacher.values():
        t.requires_grad = False
    return teacher


def student_state(teacher: dict[str, Tensor], lora: LoraConfig | None = None,
                  seed: int = 0) -> TrainState:
    """A trainable copy of ``teacher``, with adapters attached when ``lora`` is set."""
    student = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in teacher.items()}
    adapters = attach(student, lora, seed=seed) if lora is not None else None
    return init_state(student, adapters)


def trainable_map(state: TrainState) -> dict[str, Tensor]:
    out = {name: t for name, t in state.params.items() if t.requires_grad}
    if state.adapters:
        out.update(adapter_tensors(state.adapters))
    return out


def _adamw_update(state: TrainState, cfg: TrainConfig, lr: float, loss: Tensor) -> None:
    """One AdamW step on every trainable tensor, run once over all of them
    laid end to end in name order.  Nothing is written unless every gradient
    of ``loss`` and every updated weight is finite: otherwise ``NumericError``
    names the op that first saw a non-finite gradient, or the first tensor
    whose update is not finite, and ``state`` is left as it was."""
    named = sorted(trainable_map(state).items())
    params = [p for _, p in named]
    g = np.concatenate([(p.grad if p.grad is not None else np.zeros(p.shape)).reshape(-1)
                        for p in params])
    if not np.isfinite(g).all():
        check_grads_finite(loss, params)  # raises, naming the op from the tape
    w = np.concatenate([p.data.reshape(-1) for p in params])
    b1, b2 = cfg.betas
    t = state.step + 1
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # w - lr (mhat / (sqrt(vhat) + eps) + decay w), rounded as written; m and v
    # are new arrays, so the state's moments stay as they were until the end
    m0, v0 = state.moments or (np.zeros_like(g), np.zeros_like(g))
    m = m0 * b1
    tmp = g * (1.0 - b1)
    m += tmp
    v = v0 * b2
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v += tmp
    mhat = m / (1.0 - b1 ** t)
    vhat = np.divide(v, 1.0 - b2 ** t, out=tmp)
    np.sqrt(vhat, out=vhat)
    vhat += ADAM_EPS
    mhat /= vhat
    mhat += np.multiply(w, cfg.weight_decay, out=vhat)
    mhat *= lr
    updated = np.subtract(w, mhat, out=w)
    ends = np.cumsum([p.size for p in params])
    finite = np.isfinite(updated)
    if not finite.all():
        owner = np.searchsorted(ends, np.argmin(finite), side="right")
        raise NumericError(f"non-finite update of {named[owner][0]}")
    state.moments = (m, v)
    for p, end in zip(params, ends):
        p.data = updated[end - p.size:end].reshape(p.shape)  # a new array each step
        p.grad = None


def to_channels(img: np.ndarray, channels: int) -> np.ndarray:
    """Adapt a (C,H,W) image to the encoder's channel count."""
    if img.shape[0] == channels:
        return img
    if img.shape[0] == 1:
        return np.repeat(img, channels, axis=0)
    if channels == 1:
        return img.mean(axis=0, keepdims=True)
    raise ConfigError(f"cannot map {img.shape[0]} channels to {channels}")


def teacher_targets(samples, teacher: dict[str, Tensor], enc_cfg: EncoderConfig,
                    gamma: float):
    """(f_vf, labels): the frozen teacher's visible features, an array, and
    pseudo-labels for ``samples``, in sample order, from one batched pass.

    The teacher's weights take no gradient, so the pass records no tape.
    """
    vis = np.stack([to_channels(s.visible, enc_cfg.channels) for s in samples])
    out = encode(vis, teacher, enc_cfg)
    return out.features.data, pccl.pseudo_labels(out.attention_last, gamma)


def student_features(batch, params: dict[str, Tensor], enc_cfg: EncoderConfig,
                     **encode_kwargs) -> Tensor:
    """Student features of a batch of pairs, branch-first: (2, B, N, dim), the
    infrared images' then the visible images'.  They come from one
    (2B, C, H, W) stack ordered ir_0, vis_0, ir_1, ..., the order in which
    the images draw their dropout rows, and are then reordered on the tape."""
    images = [to_channels(img, enc_cfg.channels)
              for s in batch for img in (s.infrared, s.visible)]
    features = encode(np.stack(images), params, enc_cfg, **encode_kwargs).features
    pairs = ad.reshape(features, (len(batch), 2) + features.shape[1:])
    return ad.transpose(pairs, (1, 0, 2, 3))


class _RowDraws:
    """Dropout masks cut from one pre-drawn ``(rows, cols)`` uniform block.

    ``dropout_mask(shape, p)`` takes the next column segment, as a view
    reshaped to ``shape``, whose first axis is the rows.  The masks are made
    when the draws are built, by one ``lora.dropout_mask`` pass over the
    whole block for each dropout probability in ``probs``; the rule is
    elementwise, so each segment equals the mask of its own draws, byte for
    byte.  Nothing reads the uniforms after that, so the last mask is
    written over them: with one probability, the block is the mask.

    A generator fills an array in C order, so row ``r`` of the block holds,
    segment by segment, the values that the ``r``-th of ``rows`` sequential
    forward passes would have drawn.  A batched forward pass that takes its
    dropout masks from here therefore drops exactly what one pass per row did.
    """

    def __init__(self, block: np.ndarray, probs):
        *first, last = dict.fromkeys(probs)
        self.masks = {p: dropout_mask(block, p) for p in first}
        self.masks[last] = dropout_mask(block, last, out=block)
        self.col = 0

    def dropout_mask(self, shape, p: float) -> np.ndarray:
        width = math.prod(shape[1:])
        segment = self.masks[p][:, self.col:self.col + width]
        self.col += width
        return segment.reshape(shape)


def train_step(state: TrainState, batch, targets, enc_cfg: EncoderConfig,
               cfg: TrainConfig, lr: float) -> dict:
    """One optimization step at learning rate ``lr`` on a batch of aligned
    pairs; mutates ``state``.  A step that raises leaves no gradient behind.

    ``targets`` is ``teacher_targets`` of the batch.  Adapters with dropout
    draw their masks from ``default_rng(cfg.seed + state.step)``.
    """
    f_vf, labels = targets
    dropped = [a for a in (state.adapters or {}).values() if a.dropout_p > 0.0]
    rng = None
    if dropped:
        # one draw for the batch: a row per student image, a segment per adapter
        width = enc_cfg.num_patches * sum(a.A.shape[1] for a in dropped)
        rng = _RowDraws(np.random.default_rng(cfg.seed + state.step)
                        .random((2 * len(batch), width)), [a.dropout_p for a in dropped])
    try:
        f_s = student_features(batch, state.params, enc_cfg,
                               adapters=state.adapters, rng=rng)
        losses = pccl.LOSSES[cfg.loss_kind](f_s, f_vf, labels, cfg.tau)
        l_iv, l_vv = losses[0], losses[1]
        loss = check_finite(pccl.loss_pccl(l_iv, l_vv, cfg.alpha, cfg.beta), "the loss")
        if loss.requires_grad and (cfg.alpha or cfg.beta):  # alpha = beta = 0: no signal
            loss.backward()
            _adamw_update(state, cfg, lr, loss)
    except NumericError as exc:
        last = state.log[-1]["loss"] if state.log else None
        raise NumericError(
            f"non-finite values at step {state.step} (last finite loss: {last}): {exc}"
        ) from exc
    finally:
        for p in trainable_map(state).values():
            p.grad = None

    metrics = {
        "step": state.step,
        "lr": lr,
        "loss": float(loss.data),
        "l_iv": float(l_iv.data),
        "l_vv": float(l_vv.data),
    }
    state.step += 1
    state.log.append(metrics)
    return metrics


def run_training(samples, teacher: dict[str, Tensor], state: TrainState,
                 enc_cfg: EncoderConfig, cfg: TrainConfig,
                 on_step=None) -> TrainState:
    """Epoch loop over seeded shuffled batches; ``on_step(metrics)`` after each step.

    The teacher's targets are computed once per call, in ``batch_size`` chunks,
    so each scene goes through the frozen teacher once however many epochs run,
    and not at all when none does.
    """
    samples = list(samples)
    if not samples:
        raise DataError("no training samples")
    if cfg.epochs == 0:
        return state
    steps_per_epoch = -(-len(samples) // cfg.batch_size)
    chunks = [teacher_targets(samples[i:i + cfg.batch_size], teacher, enc_cfg, cfg.gamma)
              for i in range(0, len(samples), cfg.batch_size)]
    f_vf = np.concatenate([f for f, _ in chunks])
    values = np.concatenate([p.values for _, p in chunks])
    per_row_m = np.concatenate([p.per_row_m for _, p in chunks])
    del chunks  # the copies replace them; keeping both doubles the targets' memory
    for epoch in range(cfg.epochs):
        for idx in datamod.batch(range(len(samples)), cfg.batch_size,
                                 seed=cfg.seed + epoch):
            targets = (f_vf[idx],
                       pccl.PseudoLabelMatrix(values=values[idx], per_row_m=per_row_m[idx]))
            metrics = train_step(state, [samples[i] for i in idx], targets, enc_cfg, cfg,
                                 lr_at(state.step, cfg, steps_per_epoch))
            if on_step is not None:
                on_step(metrics)
    return state


# -- probes and the forgetting grid -----------------------------------


def pooled_features(samples, params: dict[str, Tensor], enc_cfg: EncoderConfig,
                    adapters=None, modality: str = "visible") -> np.ndarray:
    """Mean-pooled patch features per sample, from one batched forward pass."""
    images = [to_channels(s.visible if modality == "visible" else s.infrared,
                          enc_cfg.channels) for s in samples]
    if not images:
        raise DataError("no samples to pool features from")
    # weights without gradients: the pass records no tape for the whole probe set
    params = {name: Tensor(t.data) for name, t in params.items()}
    if adapters is not None:
        adapters = {name: replace(a, A=Tensor(a.A.data), B=Tensor(a.B.data))
                    for name, a in adapters.items()}
    out = encode(np.stack(images), params, enc_cfg, adapters=adapters)
    return out.features.data.mean(axis=-2)


def linear_probe(features: np.ndarray, labels) -> float:
    """Held-out accuracy of a closed-form ridge classifier on frozen features.

    Even indices train, odd indices evaluate; deterministic throughout.
    """
    labels = list(labels)
    if len(labels) != len(features) or len(labels) < 2:
        raise ConfigError("probe needs matching features/labels with >= 2 samples")
    classes = sorted(set(labels))
    if len(classes) == 1:
        return 1.0  # degenerate set: prior of the single class
    train = np.arange(0, len(labels), 2)
    test = np.arange(1, len(labels), 2)
    x = np.hstack([features, np.ones((len(labels), 1))])
    y = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        y[i, classes.index(lab)] = 1.0
    xt = x[train]
    w = np.linalg.solve(xt.T @ xt + PROBE_RIDGE * np.eye(x.shape[1]), xt.T @ y[train])
    pred = np.argmax(x[test] @ w, axis=1)
    truth = np.argmax(y[test], axis=1)
    return float((pred == truth).mean())


def probe_accuracies(state: TrainState, samples, labels,
                     enc_cfg: EncoderConfig) -> tuple[float, float]:
    """(visible, infrared): ``linear_probe`` accuracy on the student's pooled
    features of each modality of the labeled ``samples``."""
    return tuple(linear_probe(pooled_features(samples, state.params, enc_cfg,
                                              state.adapters, modality=modality), labels)
                 for modality in ("visible", "infrared"))


GRID_ROWS = (
    ("a", dict(train=False, use_vv=False, use_lora=False)),
    ("b", dict(train=True, use_vv=False, use_lora=False)),
    ("c", dict(train=True, use_vv=True, use_lora=False)),
    ("d", dict(train=True, use_vv=False, use_lora=True)),
    ("e", dict(train=True, use_vv=True, use_lora=True)),
)


def forgetting_experiment(enc_cfg: EncoderConfig, cfg: TrainConfig,
                          seeds=(0, 1, 2, 3, 4), n_pairs: int = 24,
                          n_probe: int = 32) -> list[dict]:
    """Run the five-row loss/adapter grid, whose rows share each seed's one set
    of pairs and probe scenes, and report median probe accuracies."""
    if not seeds:
        raise ConfigError("the forgetting grid needs at least one seed")
    teacher = frozen_teacher(enc_cfg)
    size = dict(height=enc_cfg.image_size, width=enc_cfg.image_size)
    scores = {row_name: [] for row_name, _ in GRID_ROWS}
    trainable = {row_name: 0 for row_name, _ in GRID_ROWS}
    for seed in seeds:
        # probes first: an image too small for both names the probes' larger minimum
        probes = make_labeled_scenes(n_probe, seed=1000 + seed, **size)
        pairs = make_pretrain_pairs(n_pairs, seed=cfg.seed + seed, **size)
        for row_name, row in GRID_ROWS:
            lora = (cfg.lora or LoraConfig()) if row["use_lora"] else None
            run_cfg = replace(cfg, seed=cfg.seed + seed,
                              beta=cfg.beta if row["use_vv"] else 0.0, lora=lora)
            state = student_state(teacher, lora, seed=run_cfg.seed)
            if row["train"]:
                run_training(pairs, teacher, state, enc_cfg, run_cfg)
                trainable[row_name] = sum(t.size for t in trainable_map(state).values())
            scores[row_name].append(probe_accuracies(state, *probes, enc_cfg))
    return [{
        "row": row_name,
        "uses_vv": row["use_vv"],
        "uses_lora": row["use_lora"],
        "trainable_params": trainable[row_name],
        "visible_probe": float(np.median([vis for vis, _ in scores[row_name]])),
        "infrared_probe": float(np.median([ir for _, ir in scores[row_name]])),
    } for row_name, row in GRID_ROWS]
