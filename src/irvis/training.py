"""Dual-branch training loop: frozen teacher, trainable student fed both
modalities, AdamW with linear warmup + cosine decay, and one experiment
runner, ``run_rows``, that trains and probes the rows of ``irvis ablate``
and of the catastrophic-forgetting grid."""

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


def frozen_teacher(enc_cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """Fresh encoder weights as arrays, in the dict ``init_params`` returned."""
    teacher = init_params(enc_cfg)
    for name, t in teacher.items():
        teacher[name] = t.data
    return teacher


def student_state(teacher: dict[str, np.ndarray], lora: LoraConfig | None = None,
                  seed: int = 0) -> TrainState:
    """A trainable copy of ``teacher``, with adapters attached when ``lora`` is set."""
    student = {k: Tensor(a.copy(), requires_grad=True) for k, a in teacher.items()}
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


def teacher_targets(samples, teacher: dict[str, np.ndarray], enc_cfg: EncoderConfig,
                    gamma: float):
    """(f_vf, labels), two arrays: the frozen teacher's visible features and
    the 0/1 pseudo-labels for ``samples``, in sample order, from one batched pass.

    The teacher's weights take no gradient, so the pass records no tape.
    """
    vis = np.stack([to_channels(s.visible, enc_cfg.channels) for s in samples])
    out = encode(vis, teacher, enc_cfg)
    return out.features.data, pccl.pseudo_labels(out.attention_last, gamma)


def student_features(batch, params: dict[str, Tensor], enc_cfg: EncoderConfig,
                     **encode_kwargs) -> Tensor:
    """Student features of a batch of pairs, branch-first: (2, B, N, dim), the
    infrared images' then the visible images', from one pass over their
    (2, B, C, H, W) stack."""
    images = np.stack([[to_channels(s.infrared, enc_cfg.channels) for s in batch],
                       [to_channels(s.visible, enc_cfg.channels) for s in batch]])
    return encode(images, params, enc_cfg, **encode_kwargs).features


def train_step(state: TrainState, batch, targets, enc_cfg: EncoderConfig,
               cfg: TrainConfig, lr: float) -> dict:
    """One optimization step at learning rate ``lr`` on a batch of aligned
    pairs; mutates ``state``.  A step that raises leaves no gradient behind.

    ``targets`` is ``teacher_targets`` of the batch.  The adapters' dropout
    masks, at ``cfg.lora.dropout``, come from one draw of
    ``default_rng(cfg.seed + state.step)``: a row per student image, pair by
    pair, the infrared image's row before the visible one's, and a column per
    adapted input value.  ``encode`` reads them as a (2, B, cols) view.
    ``ConfigError`` if the state has adapters but ``cfg.lora`` is None.
    """
    f_vf, labels = targets
    masks = None
    if state.adapters:
        if cfg.lora is None:
            raise ConfigError("the state has LoRA adapters but the config has no lora")
        if cfg.lora.dropout > 0.0:
            width = enc_cfg.num_patches * sum(a.A.shape[1] for a in state.adapters.values())
            draws = np.random.default_rng(cfg.seed + state.step).random((2 * len(batch), width))
            dropout_mask(draws, cfg.lora.dropout, out=draws)
            masks = draws.reshape(len(batch), 2, width).swapaxes(0, 1)
    try:
        f_s = student_features(batch, state.params, enc_cfg,
                               adapters=state.adapters, masks=masks)
        losses = pccl.LOSSES[cfg.loss_kind](f_s, f_vf, labels, cfg.tau)
        loss = check_finite(pccl.loss_pccl(losses, cfg.alpha, cfg.beta), "the loss")
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
        "l_iv": float(losses.data[0]),
        "l_vv": float(losses.data[1]),
    }
    state.step += 1
    state.log.append(metrics)
    return metrics


def run_training(samples, teacher: dict[str, np.ndarray], state: TrainState,
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
    f_vf, labels = (np.concatenate(part) for part in zip(*chunks))
    del chunks  # the copies replace them; keeping both doubles the targets' memory
    for epoch in range(cfg.epochs):
        for idx in datamod.batch(range(len(samples)), cfg.batch_size,
                                 seed=cfg.seed + epoch):
            metrics = train_step(state, [samples[i] for i in idx], (f_vf[idx], labels[idx]),
                                 enc_cfg, cfg, lr_at(state.step, cfg, steps_per_epoch))
            if on_step is not None:
                on_step(metrics)
    return state


# -- probes and the experiment runner --------------------------------


def pooled_features(samples, params: dict[str, Tensor], enc_cfg: EncoderConfig,
                    adapters=None) -> np.ndarray:
    """Mean-pooled patch features per sample and modality, (2, n, dim): the
    infrared images', then the visible images', from one ``student_features``
    pass."""
    if not samples:
        raise DataError("no samples to pool features from")
    # arrays take no gradient: the pass records no tape for the whole probe set
    params = {name: ad._data(t) for name, t in params.items()}
    adapters = adapters and {name: replace(a, A=ad._data(a.A), B=ad._data(a.B))
                             for name, a in adapters.items()}
    return student_features(samples, params, enc_cfg, adapters=adapters).data.mean(axis=-2)


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


def run_rows(rows, teacher: dict[str, np.ndarray], enc_cfg: EncoderConfig, sets) -> list[tuple]:
    """Train and probe each ``(name, cfg)`` row on every ``(offset, probes, pairs)``
    set, seed-major.  A row trains a fresh ``student_state`` on ``pairs`` under
    ``cfg``, at seed ``cfg.seed + offset``; a row whose ``cfg`` is None is the
    untrained teacher.  Each row reports (trainable size, final loss, visible
    probe, infrared probe): a probe is ``linear_probe``'s accuracy on the
    labeled ``probes``, and the last three are medians over the sets, the loss
    NaN for an untrained row.  Each set is built only when reached; one whose
    even or odd probe scenes are all of one class stops the run before its
    rows train."""
    scores = {name: [] for name, _ in rows}
    trainable = dict.fromkeys(scores, 0)
    for offset, (probes, labels), pairs in sets:
        # the probe trains on the even scenes and scores the odd ones
        if any(len(set(labels[half::2])) < 2 for half in (0, 1)):
            raise ConfigError(f"a probe set needs at least 2 scenes of different classes among "
                              f"its even scenes and among its odd ones, got {len(labels)}")
        for name, cfg in rows:
            state = init_state(teacher)
            if cfg is not None:
                cfg = replace(cfg, seed=cfg.seed + offset)
                state = run_training(pairs, teacher, student_state(teacher, cfg.lora, cfg.seed),
                                     enc_cfg, cfg)
                trainable[name] = sum(t.size for t in trainable_map(state).values())
            ir, vis = pooled_features(probes, state.params, enc_cfg, state.adapters)
            scores[name].append([state.log[-1]["loss"] if state.log else math.nan,
                                 linear_probe(vis, labels), linear_probe(ir, labels)])
    return [(trainable[name], *(float(np.median(column)) for column in zip(*scores[name])))
            for name, _ in rows]


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
    size = dict(height=enc_cfg.image_size, width=enc_cfg.image_size)
    # probes first: an image too small for both names the probes' larger minimum
    sets = ((seed, make_labeled_scenes(n_probe, seed=1000 + seed, **size),
             make_pretrain_pairs(n_pairs, seed=cfg.seed + seed, **size)) for seed in seeds)
    rows = [(name, replace(cfg, beta=cfg.beta if row["use_vv"] else 0.0,
                           lora=(cfg.lora or LoraConfig()) if row["use_lora"] else None)
             if row["train"] else None) for name, row in GRID_ROWS]
    report = run_rows(rows, frozen_teacher(enc_cfg), enc_cfg, sets)
    return [{"row": name, "uses_vv": row["use_vv"], "uses_lora": row["use_lora"],
             "trainable_params": n, "visible_probe": vis, "infrared_probe": ir}
            for (name, row), (n, _, vis, ir) in zip(GRID_ROWS, report, strict=True)]
