"""The benchmark's workloads: their inputs, one unit of work each, and the
checks on that unit's outputs.

Every workload is a closed loop: a unit (a training run, a grid, an operator
pipeline) starts only after the previous one returned.  Inputs come from a
fixed pool of unit keys; the run's seed picks which keys run and in what
order, and ``reference.json`` holds each key's recorded outputs.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import irvis.training as training
from irvis import tensorio
from irvis.autodiff import Tensor
from irvis.encoder import EncoderConfig, init_params
from irvis.lora import LoraConfig, attach
from irvis.training import TrainConfig, init_state, make_pretrain_pairs

import tracing

# Losses may drift by reordered float64 sums (batching, head fusion), which
# stay near 1e-15 relative over a whole run; anything past 1e-9 is a change
# in what is computed.
LOSS_RTOL = 1e-9
MERGE_MAX_DIFF = 1e-12
METRICS_KEYS = ["step", "lr", "loss", "l_iv", "l_vv"]
BATCH = 4
MODEL_SEED = 7
CLI_ENTRY = Path(__file__).resolve().parent / "cli_entry.py"

PROFILES = {
    "full": {
        "setup_repeats": 3,
        "train_lora": {"pairs": 24, "epochs": 4, "pool": 32},
        "forget_grid": {"pairs": 24, "epochs": 8, "probes": 32, "pool": 10},
        "cli_fresh": {"pairs": 96, "pool": 16},
    },
    # Seconds-long runs for the benchmark's own tests.
    "tiny": {
        "setup_repeats": 1,
        "train_lora": {"pairs": 8, "epochs": 2, "pool": 2},
        "forget_grid": {"pairs": 8, "epochs": 2, "probes": 8, "pool": 2},
        "cli_fresh": {"pairs": 8, "pool": 2},
    },
}


@dataclass
class UnitResult:
    key: int
    wall_s: float
    step_ms: list[float]
    losses: list[float]
    lora_steps: list[bool]  # which steps trained adapters
    pairs_trained: int
    commands: int = 0
    failed_commands: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # output-check misses
    spans: list | None = None
    quality: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    speed: float = 1.0  # multiplier to the reference machine speed

    @property
    def attempted(self) -> int:
        """Steps, commands and the output check itself."""
        return len(self.step_ms) + self.commands + 1

    @property
    def failed(self) -> int:
        return len(self.failed_commands) + bool(self.failures)


def frozen_teacher(enc: EncoderConfig) -> dict[str, Tensor]:
    teacher = init_params(enc)
    for t in teacher.values():
        t.requires_grad = False
    return teacher


def _check_losses(losses, expected_count, reference, failures) -> None:
    if len(losses) != expected_count:
        failures.append(f"{len(losses)} steps, expected {expected_count}")
    if not all(math.isfinite(x) for x in losses):
        failures.append("non-finite loss")
    if reference is None:
        return
    ref = reference["losses"]
    if len(ref) != len(losses) or not np.allclose(losses, ref, rtol=LOSS_RTOL, atol=0.0):
        failures.append(f"loss trajectory differs from reference beyond rtol {LOSS_RTOL}")


class Workload:
    name = ""
    why = ""

    def __init__(self, root: Path, profile: str):
        self.root = root
        self.size = PROFILES[profile][self.name]

    def keys(self, seed: int):
        """Unit keys in the order this seed runs them, cycling over the pool."""
        order = np.random.default_rng(seed).permutation(self.size["pool"])
        while True:
            yield from (int(k) for k in order)

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, key: int, reference: dict | None,
                 tracer: tracing.Tracer | None) -> UnitResult:
        raise NotImplementedError


class InProcess(Workload):
    """A unit that calls the library in this process."""

    def run_unit(self, key, reference, tracer):
        steps = tracing.StepRecorder()
        # The tracer wraps the step recorder, so its patches are made second.
        with tracing.patched(steps.patches()), \
                tracing.patched(tracer.patches() if tracer else []), \
                (tracer.span("bench.unit") if tracer else nullcontext()):
            start = perf_counter()
            out = self.work(key, tracer)
            wall = perf_counter() - start
        result = UnitResult(key=key, wall_s=wall, step_ms=steps.ms, losses=steps.losses,
                            lora_steps=steps.lora, pairs_trained=0,
                            spans=tracer.take() if tracer else None)
        self.check(out, result, reference)
        return result


class TrainLora(InProcess):
    name = "train_lora"
    why = ("the paper's core loop in process: autodiff, encoder, lora and pccl "
           "do the work; every scene returns once per epoch")

    def setup(self):
        self.enc = EncoderConfig(seed=MODEL_SEED)
        self.teacher = frozen_teacher(self.enc)
        self.teacher_data = {k: t.data.copy() for k, t in self.teacher.items()}
        self.pairs = {key: make_pretrain_pairs(self.size["pairs"], seed=key)
                      for key in range(self.size["pool"])}

    def work(self, key, tracer):
        cfg = TrainConfig(epochs=self.size["epochs"], warmup_epochs=1,
                          batch_size=BATCH, lora=LoraConfig(), seed=key)
        if tracer is not None:
            tracer.register_teacher(self.teacher)
        student = {k: Tensor(t.data.copy(), requires_grad=True)
                   for k, t in self.teacher.items()}
        adapters = attach(student, cfg.lora, seed=key)
        return training.run_training(self.pairs[key], self.teacher,
                                     init_state(student, adapters), self.enc, cfg)

    def check(self, state, result, reference):
        n = self.size["pairs"]
        steps = self.size["epochs"] * -(-n // BATCH)
        result.pairs_trained = self.size["epochs"] * n
        failures = result.failures
        _check_losses(result.losses, steps, reference, failures)
        if [m["loss"] for m in state.log] != result.losses:
            failures.append("state log disagrees with the returned step losses")
        for name, ref in self.teacher_data.items():
            if not np.array_equal(self.teacher[name].data, ref):
                failures.append(f"teacher weight {name} changed")
            if name != "pos_embed" and not np.array_equal(state.params[name].data, ref):
                failures.append(f"frozen base weight {name} changed")
        if not any(np.any(a.B.data != 0.0) for a in state.adapters.values()):
            failures.append("adapters did not move")
        result.quality = {"final_loss": result.losses[-1]}
        result.record = {"losses": result.losses}


class ForgetGrid(InProcess):
    name = "forget_grid"
    why = ("five-row forgetting grid per seed: rows b/c fine-tune every base "
           "weight without adapters; forward-only probes carry a large share")

    def setup(self):
        self.enc = EncoderConfig(seed=MODEL_SEED)
        self.cfg = TrainConfig(epochs=self.size["epochs"], warmup_epochs=1,
                               base_lr=3e-3, batch_size=BATCH, lora=LoraConfig(),
                               seed=0)

    def work(self, key, tracer):
        return training.forgetting_experiment(
            self.enc, self.cfg, seeds=(key,), n_pairs=self.size["pairs"],
            n_probe=self.size["probes"])

    def check(self, report, result, reference):
        n = self.size["pairs"]
        trained_rows = sum(1 for _, row in training.GRID_ROWS if row["train"])
        steps = trained_rows * self.size["epochs"] * -(-n // BATCH)
        result.pairs_trained = trained_rows * self.size["epochs"] * n
        _check_losses(result.losses, steps, reference, result.failures)
        rows = [[r["row"], r["visible_probe"], r["infrared_probe"],
                 r["trainable_params"]] for r in report]
        if reference is not None and rows != reference["rows"]:
            result.failures.append(f"probe rows {rows} differ from reference")
        last = report[-1]  # row e: intra-visible term plus adapters
        result.quality = {"final_loss": result.losses[-1],
                          "probe_visible": last["visible_probe"],
                          "probe_infrared": last["infrared_probe"]}
        result.record = {"losses": result.losses, "rows": rows}


class CliFresh(Workload):
    """The operator pipeline, each command in a fresh interpreter."""

    name = "cli_fresh"
    why = ("operator pipeline gen-data, pretrain, merge, dump-matrices, one "
           "interpreter per command: cli, data, tensorio and start-up carry it")

    def setup(self):
        self.teacher_data = {k: t.data for k, t in
                             frozen_teacher(EncoderConfig(seed=MODEL_SEED)).items()}
        self.teacher_bytes = tensorio.checkpoint_bytes(self.teacher_data)
        self.work_dir = self.root / ".perfbench_work" / self.name

    def commands(self, key):
        return [
            ["gen-data", "--out", "data", "--pairs", str(self.size["pairs"]),
             "--seed", str(key), "--night-fraction", "0.25"],
            ["pretrain", "--config", "run.cfg", "--out", "run"],
            ["merge", "--checkpoint", "run/final.ckpt", "--adapters",
             "run/adapters.ckpt", "--out", "merged.ckpt"],
            ["dump-matrices", "--config", "run.cfg", "--out", "mats",
             "--checkpoint", "merged.ckpt"],
        ]

    def run_unit(self, key, reference, tracer):
        d = self.work_dir / f"unit-{key}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        (d / "run.cfg").write_text(
            f"manifest=data/manifest.tsv\nmodel_seed={MODEL_SEED}\nseed={key}\n"
            f"epochs=1\nwarmup_epochs=0\nbatch_size={BATCH}\nlora_enabled=true\n")
        argvs = []
        for i, cmd in enumerate(self.commands(key)):
            argv = [sys.executable, str(CLI_ENTRY), "--steps-out", f"steps{i}.json"]
            if tracer is not None:
                argv += ["--trace-out", f"trace{i}.json"]
            argvs.append(argv + ["--"] + cmd)
        codes = []
        start = perf_counter()
        for i, argv in enumerate(argvs):
            with open(d / f"cmd{i}.log", "wb") as log:
                codes.append(subprocess.run(argv, cwd=d, stdout=log,
                                            stderr=subprocess.STDOUT,
                                            timeout=120).returncode)
            if codes[-1] != 0:
                break
        wall = perf_counter() - start
        steps = {"ms": [], "losses": [], "lora": []}
        for i in range(len(codes)):
            path = d / f"steps{i}.json"
            if path.exists():
                for k, v in json.loads(path.read_text()).items():
                    steps[k] += v
        result = UnitResult(key=key, wall_s=wall, step_ms=steps["ms"],
                            losses=steps["losses"], lora_steps=steps["lora"],
                            pairs_trained=self.size["pairs"], commands=len(argvs))
        for i, argv in enumerate(argvs):
            if i >= len(codes) or codes[i] != 0:
                tail = (d / f"cmd{i}.log").read_text(errors="replace")[-400:] \
                    if i < len(codes) else "not run"
                name = argv[argv.index("--") + 1]
                result.failed_commands.append(f"irvis {name} failed: {tail}")
        if tracer is not None:
            result.spans = _joined_spans(d, len(codes))
        if len(codes) == len(argvs) and all(c == 0 for c in codes):
            self.check(d, result, reference)
        shutil.rmtree(d, ignore_errors=True)
        return result

    def check(self, d: Path, result: UnitResult, reference) -> None:
        failures = result.failures
        n = self.size["pairs"]
        entries = (d / "data" / "manifest.tsv").read_text().splitlines()
        if len(entries) != n:
            failures.append(f"manifest has {len(entries)} entries, expected {n}")
        lines = [json.loads(x) for x in (d / "run" / "metrics.jsonl").read_text().splitlines()]
        if any(list(m) != METRICS_KEYS for m in lines):
            failures.append("metrics.jsonl keys are not exactly " + ", ".join(METRICS_KEYS))
        logged = [m.get("loss") for m in lines]
        if logged != result.losses:
            failures.append("metrics.jsonl losses differ from the timed steps")
        _check_losses(logged, -(-n // BATCH), reference, failures)

        merge_log = (d / "cmd2.log").read_text()
        found = re.search(r"max two-path vs merged diff (\S+)", merge_log)
        if found is None or not float(found.group(1)) <= MERGE_MAX_DIFF:
            failures.append(f"merge two-path vs merged diff above {MERGE_MAX_DIFF}")

        for name in ("teacher", "initial", "final", "best"):
            self._check_reread(d / "run" / f"{name}.ckpt", failures)
        self._check_reread(d / "merged.ckpt", failures)
        named, meta = tensorio.read_adapter_checkpoint(d / "run" / "adapters.ckpt")
        tensorio.write_adapter_checkpoint(d / "adapters.reread", named, rank=int(meta["rank"]),
                                          alpha=meta["alpha"], dropout=meta["dropout"])
        if (d / "adapters.reread").read_bytes() != (d / "run" / "adapters.ckpt").read_bytes():
            failures.append("adapters.ckpt does not re-read to the bytes written")
        for name in ("teacher", "initial"):
            if (d / "run" / f"{name}.ckpt").read_bytes() != self.teacher_bytes:
                failures.append(f"{name}.ckpt is not the frozen teacher")
        final = tensorio.read_checkpoint(d / "run" / "final.ckpt")
        for name, ref in self.teacher_data.items():
            if name != "pos_embed" and not np.array_equal(final[name], ref):
                failures.append(f"frozen base weight {name} changed")

        for entry in entries:
            scene = entry.split("\t")[0]
            labels = tensorio.read_tensor(d / "mats" / f"{scene}.m_p.tnsr")
            if not (np.isin(labels, (0.0, 1.0)).all() and np.all(np.diag(labels) == 1.0)):
                failures.append(f"{scene}: label matrix not binary with unit diagonal")
            for kind in ("m_iv", "m_vv"):
                sim = tensorio.read_tensor(d / "mats" / f"{scene}.{kind}.tnsr")
                if sim.shape != labels.shape or not np.isfinite(sim).all():
                    failures.append(f"{scene}: bad {kind} matrix")
        result.quality = {"final_loss": logged[-1]} if logged else {}
        result.record = {"losses": logged}

    @staticmethod
    def _check_reread(path: Path, failures: list) -> None:
        if tensorio.checkpoint_bytes(tensorio.read_checkpoint(path)) != path.read_bytes():
            failures.append(f"{path.name} does not re-read to the bytes written")


def _joined_spans(d: Path, count: int) -> list[list]:
    """The spans of one pipeline's commands, as one list."""
    spans: list[list] = []
    for i in range(count):
        path = d / f"trace{i}.json"
        if not path.exists():
            continue
        offset = len(spans)
        for name, start, end, parent, root, attrs in json.loads(path.read_text()):
            spans.append([name, start, end,
                          None if parent is None else parent + offset,
                          root + offset, attrs])
    return spans


WORKLOADS = {w.name: w for w in (TrainLora, ForgetGrid, CliFresh)}
