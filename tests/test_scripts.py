"""Each script in ``scripts/`` runs to completion with its smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("UNIV_SEED", None)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,args", [
    ("run_overfit_smoke.py", ["--steps", "2"]),
    ("run_forgetting_grid.py", ["--epochs", "1", "--seeds", "1", "--pairs", "4",
                                "--probe", "4"]),
], ids=["overfit_smoke", "forgetting_grid"])
def test_script_exits_0(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_ablation_script_with_tiny_config(tmp_path):
    cfg = tmp_path / "ablate.cfg"
    cfg.write_text("epochs=1\nwarmup_epochs=0\nn_pairs=4\nbatch_size=4\nn_probe=4\n")
    done = run_script("run_ablation.py", str(cfg))
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()[-3:]] == \
        ["L_MSE", "L_NCE", "L_PCCL"]
