"""Operator command-line surface.

Subcommands: gen-data, pretrain, ablate, forget, merge, dump-matrices.
Configs are flat key=value text files validated against a fixed schema;
the env var UNIV_SEED overrides the configured seed.  Exit codes:
0 success, 1 usage/config error, 2 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as datamod
from . import tensorio
from .encoder import EncoderConfig
from .encoder import encode  # noqa: F401  (benchmark wraps cli.encode)
from .encoder import init_params  # noqa: F401  (benchmark wraps cli.init_params)
from .errors import ConfigError, DataError, NumericError
from .lora import (LoraConfig, adapter_tensors, adapters_from_tensors, forward_adapted,
                   merge)
from .pccl import similarity
from .pccl import pseudo_labels  # noqa: F401  (benchmark wraps cli.pseudo_labels)
from .training import (GRID_ROWS, TrainConfig, forgetting_experiment, frozen_teacher,
                       make_labeled_scenes, make_pretrain_pairs, run_rows, run_training,
                       student_features, student_state, teacher_targets, trainable_map)
from .training import linear_probe  # noqa: F401  (benchmark wraps cli.linear_probe)
from .training import pooled_features  # noqa: F401  (benchmark wraps cli.pooled_features)
from .training import train_step  # noqa: F401  (benchmark wraps cli.train_step)


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {raw!r}")


_SCHEMA: dict[str, tuple] = {
    # encoder
    "image_size": (int, EncoderConfig.image_size),
    "patch_size": (int, EncoderConfig.patch_size),
    "channels": (int, EncoderConfig.channels),
    "depth": (int, EncoderConfig.depth),
    "dim": (int, EncoderConfig.dim),
    "heads": (int, EncoderConfig.heads),
    "mlp_ratio": (int, EncoderConfig.mlp_ratio),
    "model_seed": (int, 7),
    # training
    "epochs": (int, TrainConfig.epochs),
    "warmup_epochs": (int, TrainConfig.warmup_epochs),
    "base_lr": (float, TrainConfig.base_lr),
    "weight_decay": (float, TrainConfig.weight_decay),
    "beta1": (float, TrainConfig.betas[0]),
    "beta2": (float, TrainConfig.betas[1]),
    "batch_size": (int, TrainConfig.batch_size),
    "tau": (float, TrainConfig.tau),
    "gamma": (float, TrainConfig.gamma),
    "alpha": (float, TrainConfig.alpha),
    "beta": (float, TrainConfig.beta),
    "loss_kind": (str, TrainConfig.loss_kind),
    "seed": (int, TrainConfig.seed),
    # lora
    "lora_enabled": (_flag, False),
    "lora_rank": (int, LoraConfig.rank),
    "lora_alpha": (float, LoraConfig.alpha),
    "lora_dropout": (float, LoraConfig.dropout),
    "lora_targets": (lambda s: tuple(t for t in s.split(",") if t), LoraConfig.target_modules),
    # data
    "manifest": (str, ""),
    "n_pairs": (int, 24),
    "night_fraction": (float, 0.0),
    # probes / grid
    "n_probe": (int, 32),
    "grid_seeds": (int, 5),
}


def parse_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from exc
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        parser = _SCHEMA[key][0]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if "UNIV_SEED" in os.environ:
        try:
            values["seed"] = int(os.environ["UNIV_SEED"])
        except ValueError as exc:
            raise ConfigError(f"bad UNIV_SEED: {exc}") from exc
    for key in sorted(values):
        print(f"config: {key}={values[key]}")
    return values


def _lora_config(v: dict) -> LoraConfig:
    return LoraConfig(rank=v["lora_rank"], alpha=v["lora_alpha"],
                      dropout=v["lora_dropout"], target_modules=v["lora_targets"])


def build_configs(v: dict) -> tuple[EncoderConfig, TrainConfig]:
    enc = EncoderConfig(
        image_size=v["image_size"], patch_size=v["patch_size"],
        channels=v["channels"], depth=v["depth"], dim=v["dim"],
        heads=v["heads"], mlp_ratio=v["mlp_ratio"], seed=v["model_seed"],
    )
    train = TrainConfig(
        epochs=v["epochs"], warmup_epochs=v["warmup_epochs"],
        base_lr=v["base_lr"], weight_decay=v["weight_decay"],
        betas=(v["beta1"], v["beta2"]), batch_size=v["batch_size"],
        tau=v["tau"], gamma=v["gamma"], alpha=v["alpha"], beta=v["beta"],
        lora=_lora_config(v) if v["lora_enabled"] else None,
        loss_kind=v["loss_kind"], seed=v["seed"],
    )
    return enc, train


def _load_samples(v: dict, enc: EncoderConfig):
    if v["manifest"]:
        samples = list(datamod.load_pairs(v["manifest"]))
        for s in samples:  # checked here, so no batch stacks images of two sizes
            h, w = s.visible.shape[1:]
            if (h, w) != (enc.image_size, enc.image_size):
                raise DataError(f"{s.scene_id}: a {w}x{h} image, but image_size is "
                                f"{enc.image_size}")
        return samples
    return make_pretrain_pairs(v["n_pairs"], seed=v["seed"],
                               height=enc.image_size, width=enc.image_size,
                               night_fraction=v["night_fraction"])


def _arrays(tensors) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in tensors.items()}


# -- subcommands -------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.pairs < 0 or args.seed < 0:
        raise ConfigError(f"--pairs and --seed must be nonnegative, got "
                          f"{args.pairs} and {args.seed}")
    samples = make_pretrain_pairs(args.pairs, args.seed,
                                  night_fraction=args.night_fraction,
                                  classes=datamod.SCENE_CLASSES)
    n_night = datamod.night_count(args.pairs, args.night_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, sample in enumerate(samples):
        scene_id = f"scene-{i:05d}" + ("-night" if i >= args.pairs - n_night else "")
        vis_name = f"{scene_id}.ppm"
        ir_name = f"{scene_id}.pgm"
        datamod.write_ppm(out / vis_name, sample.visible)
        datamod.write_pgm(out / ir_name, sample.infrared)
        entries.append(datamod.ManifestEntry(scene_id, vis_name, ir_name,
                                             f"seq{i // 8}"))
    datamod.write_manifest(out / "manifest.tsv", entries)
    print(f"wrote {args.pairs} pairs to {out}")
    return 0


def cmd_pretrain(args) -> int:
    v = parse_config(args.config)
    enc, cfg = build_configs(v)
    samples = _load_samples(v, enc)
    if not samples:
        raise DataError("no training samples")
    teacher = frozen_teacher(enc)
    state = student_state(teacher, cfg.lora, seed=cfg.seed)
    out = Path(args.out)  # made once every input has been read
    out.mkdir(parents=True, exist_ok=True)
    # a step's loss scores the trainable weights before its update: ``scored``
    # holds them.  Held by reference: each update gives every trainable tensor
    # a new array, and the frozen ones are never written.
    best_loss = float("inf")
    best = scored = _arrays(trainable_map(state))
    # one flushed line per step, so a run that fails keeps its finite steps
    with open(out / "metrics.jsonl", "w") as log:
        def on_step(metrics):
            nonlocal best_loss, best, scored
            log.write(json.dumps(metrics) + "\n")
            log.flush()
            if metrics["loss"] < best_loss:
                best_loss, best = metrics["loss"], scored
            scored = _arrays(trainable_map(state))

        run_training(samples, teacher, state, enc, cfg, on_step)
    tensorio.write_checkpoint(out / "teacher.ckpt", teacher)
    # the student starts as a byte-identical copy of the teacher
    tensorio.write_checkpoint(out / "initial.ckpt", teacher)
    if cfg.epochs == 0:
        print("epochs=0: wrote initial checkpoint only")
        return 0
    final = _arrays(state.params)
    tensorio.write_checkpoint(out / "final.ckpt", final)
    tensorio.write_checkpoint(out / "best.ckpt",
                              {name: best.get(name, a) for name, a in final.items()})
    if state.adapters is not None:
        adapters = _arrays(adapter_tensors(state.adapters))
        for name, named in (("adapters.ckpt", adapters),
                            ("best_adapters.ckpt", {n: best[n] for n in adapters})):
            tensorio.write_adapter_checkpoint(
                out / name, named,
                rank=cfg.lora.rank, alpha=cfg.lora.alpha, dropout=cfg.lora.dropout)
    print(f"pretrain done: {state.step} steps, "
          f"final loss {state.log[-1]['loss']:.6f}")
    return 0


def cmd_ablate(args) -> int:
    v = parse_config(args.config)
    enc, cfg = build_configs(v)
    if cfg.epochs == 0:  # checked before any scene or teacher is built
        raise ConfigError("ablate compares final losses, so it needs epochs >= 1")
    samples = _load_samples(v, enc)
    probes = make_labeled_scenes(v["n_probe"], seed=1000 + v["seed"],
                                 height=enc.image_size, width=enc.image_size)
    rows = [(label, replace(cfg, loss_kind=kind))
            for label, kind in (("L_MSE", "mse"), ("L_NCE", "nce"), ("L_PCCL", "pccl"))]
    report = run_rows(rows, frozen_teacher(enc), enc, [(0, probes, samples)])
    print(f"{'loss':<8} {'final':>12} {'visible_probe':>14} {'infrared_probe':>15}")
    for (label, _), (_, final, vp, ip) in zip(rows, report, strict=True):
        print(f"{label:<8} {final:>12.6f} {vp:>14.4f} {ip:>15.4f}")
    return 0


def cmd_forget(args) -> int:
    v = parse_config(args.config)
    enc, cfg = build_configs(v)
    cfg = replace(cfg, lora=_lora_config(v))  # rows d and e train adapters either way
    seeds = tuple(range(v["grid_seeds"]))
    report = forgetting_experiment(enc, cfg, seeds=seeds,
                                   n_pairs=v["n_pairs"], n_probe=v["n_probe"])
    print(f"{'row':<4} {'L_IV':<5} {'L_VV':<5} {'LoRA':<5} "
          f"{'trainable':>10} {'visible':>8} {'infrared':>9}")
    for r, (_, row) in zip(report, GRID_ROWS, strict=True):
        # a row that trains nothing uses no loss
        flags = "".join(f"{'yes' if on else 'no':<5} "
                        for on in (row["train"], r["uses_vv"], r["uses_lora"]))
        print(f"({r['row']})  {flags}{r['trainable_params']:>10} "
              f"{r['visible_probe']:>8.4f} {r['infrared_probe']:>9.4f}")
    return 0


def cmd_merge(args) -> int:
    params = tensorio.read_checkpoint(args.checkpoint)
    named, meta = tensorio.read_adapter_checkpoint(args.adapters)
    adapters = adapters_from_tensors(named, int(meta["rank"]), meta["alpha"])
    rng = np.random.default_rng(0)
    merged = dict(params)
    worst = 0.0
    for target, adapter in adapters.items():
        wname = f"{target}.weight"
        if wname not in params:
            raise ConfigError(f"adapter target {target!r} not found in checkpoint")
        w = params[wname]
        w_star = merged[wname] = merge(w, adapter)
        for _ in range(10):
            x = rng.normal(size=(4, w.shape[0]))
            two_path = forward_adapted(x, w, adapter)
            single = x @ w_star
            if not np.isfinite(single).all():
                raise NumericError("non-finite values in merged forward")
            worst = max(worst, float(np.abs(two_path.data - single).max()))
    tensorio.write_checkpoint(args.out, merged)
    print(f"merged {len(adapters)} adapters; max two-path vs merged diff {worst:.3e}")
    return 0


def cmd_dump_matrices(args) -> int:
    v = parse_config(args.config)
    enc, cfg = build_configs(v)
    teacher = frozen_teacher(enc)
    student = teacher  # untrained: the student is a copy of the teacher
    if args.checkpoint:
        student = tensorio.read_checkpoint(args.checkpoint)
        if {k: a.shape for k, a in student.items()} != {k: a.shape for k, a in teacher.items()}:
            raise DataError(f"{args.checkpoint}: parameter names or shapes do not "
                            f"match the configured model")
    samples = _load_samples(v, enc)
    out = Path(args.out)  # made once every input has been read
    out.mkdir(parents=True, exist_ok=True)
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start:start + cfg.batch_size]
        f_vf, labels = teacher_targets(chunk, teacher, enc, cfg.gamma)
        s_iv, s_vv = similarity(student_features(chunk, student, enc), f_vf, cfg.tau).data
        for j, sample in enumerate(chunk):
            tensorio.write_tensor(out / f"{sample.scene_id}.m_iv.tnsr", s_iv[j])
            tensorio.write_tensor(out / f"{sample.scene_id}.m_vv.tnsr", s_vv[j])
            tensorio.write_tensor(out / f"{sample.scene_id}.m_p.tnsr", labels[j])
    print(f"dumped matrices to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="irvis")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic aligned pairs")
    g.add_argument("--out", required=True)
    g.add_argument("--pairs", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--night-fraction", type=float, default=0.0,
                   dest="night_fraction")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("pretrain", help="run cross-modal pretraining")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_pretrain)

    a = sub.add_parser("ablate", help="compare MSE/NCE/PCCL losses")
    a.add_argument("--config", required=True)
    a.set_defaults(func=cmd_ablate)

    f = sub.add_parser("forget", help="run the forgetting grid")
    f.add_argument("--config", required=True)
    f.set_defaults(func=cmd_forget)

    m = sub.add_parser("merge", help="fold adapters into a checkpoint")
    m.add_argument("--checkpoint", required=True)
    m.add_argument("--adapters", required=True)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_merge)

    d = sub.add_parser("dump-matrices", help="dump similarity/label matrices")
    d.add_argument("--config", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--checkpoint", default="")
    d.set_defaults(func=cmd_dump_matrices)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        # non-finite values raise NumericError (exit 2); numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:  # every error type of bad input is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a model or data set too large for this machine
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
