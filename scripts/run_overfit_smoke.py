#!/usr/bin/env python3
"""Sanity experiment: overfit the contrastive objective on 4 fixed pairs.

A healthy setup drops the loss by well over half in 50 full-batch steps.
"""

import argparse

from irvis.encoder import EncoderConfig
from irvis.training import (TrainConfig, frozen_teacher, lr_at, make_pretrain_pairs,
                            student_state, teacher_targets, train_step)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    enc_cfg = EncoderConfig(seed=7)
    teacher = frozen_teacher(enc_cfg)
    state = student_state(teacher)
    cfg = TrainConfig(epochs=args.steps, warmup_epochs=0, base_lr=args.lr,
                      weight_decay=0.0, batch_size=4)
    batch = make_pretrain_pairs(4, seed=args.seed)
    targets = teacher_targets(batch, teacher, enc_cfg, cfg.gamma)

    first = None
    for step in range(args.steps):
        # one full batch per epoch: the schedule's epochs are steps
        m = train_step(state, batch, targets, enc_cfg, cfg, lr_at(step, cfg, 1))
        if first is None:
            first = m["loss"]
        if step % 10 == 0 or step == args.steps - 1:
            print(f"step {m['step']:>3}  lr {m['lr']:.5f}  loss {m['loss']:.4f}")
    print(f"reduction: {100 * (1 - m['loss'] / first):.1f}% "
          f"({first:.4f} -> {m['loss']:.4f})")


if __name__ == "__main__":
    main()
