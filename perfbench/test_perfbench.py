"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "0",
         "--seconds", "1", "--profile", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, tracing.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(workload, trace, table):
    proc = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: m["unit"] for k, m in out["metrics"].items()} == \
        {k: unit for k, (unit, _) in table.items()}
    if trace:
        repeat = out["metrics"]["encoder.teacher_repeat_share"]["value"]
        assert (repeat == 0.0) == (workload == "cli_fresh")


def corrupt_loss(entry):
    entry["losses"][-1] *= 1.0 + 1e-6


def corrupt_probe(entry):
    entry["rows"][-1][2] += 1.0 / 8


@pytest.mark.parametrize("workload, corrupt, message", [
    ("train_lora", corrupt_loss, "loss trajectory differs from reference"),
    ("forget_grid", corrupt_loss, "loss trajectory differs from reference"),
    ("forget_grid", corrupt_probe, "differ from reference"),
    ("cli_fresh", corrupt_loss, "loss trajectory differs from reference"),
])
def test_output_check_fails_on_a_corrupted_reference(workload, corrupt, message, tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    for entry in reference["tiny"][workload].values():
        corrupt(entry)
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    proc = bench("--workload", workload, "--trace", "0", "--reference", str(corrupted))
    assert proc.returncode != 0
    out = last_json(proc)
    assert out["correct"] is False and out["failed"] >= 1
    assert message in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train_lora", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
