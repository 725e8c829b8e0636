#!/usr/bin/env python3
"""Run the five-row catastrophic-forgetting grid and print the report,
through the CLI's forget subcommand.

Rows: (a) frozen baseline, (b) full fine-tune without the intra-visible
term, (c) full fine-tune with it, (d) adapters without it, (e) adapters
with it. Probe accuracies are medians over seeds.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from irvis.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=24)
    ap.add_argument("--probe", type=int, default=32)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "forget.cfg"
        cfg.write_text(f"epochs={args.epochs}\nwarmup_epochs=1\nbase_lr={args.lr!r}\n"
                       f"batch_size=4\ngrid_seeds={args.seeds}\nn_pairs={args.pairs}\n"
                       f"n_probe={args.probe}\n")
        return cli_main(["forget", "--config", str(cfg)])


if __name__ == "__main__":
    sys.exit(main())
