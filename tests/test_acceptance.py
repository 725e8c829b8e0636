"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance N] name: PASS|FAIL`` line on the
real terminal (outside pytest capture) and asserts its runtime budget.
"""

import json
import time
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

import irvis.autodiff as ad
from irvis import pccl, tensorio
from irvis.autodiff import Tensor, grad_check
from irvis.cli import main
from irvis.data import read_pgm, read_ppm, write_pgm, write_ppm
from irvis.encoder import EncoderConfig, encode, init_params
from irvis.lora import LoraConfig, attach, forward_adapted, merge, unmerge
from irvis.training import (TrainConfig, forgetting_experiment, frozen_teacher,
                            lr_at, make_pretrain_pairs, run_training,
                            student_state, teacher_targets, train_step)
from conftest import exhaustive_pseudo_labels, random_stochastic


@contextmanager
def criterion(capsys, number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS"
    if budget_s is not None and elapsed > budget_s:
        status = "FAIL"
    with capsys.disabled():
        print(f"[acceptance {number}] {name}: {status} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed <= budget_s, f"{name} exceeded {budget_s}s budget"


def test_01_pseudo_labels_match_exhaustive_oracle(capsys):
    """1000 random attention matrices agree with a brute-force oracle.

    Budget: 10 seconds. Tolerance: exact (binary matrices compared bitwise).
    """
    with criterion(capsys, 1, "pseudo-label oracle, 1000 matrices", 10.0):
        rng = np.random.default_rng(101)
        for trial in range(1000):
            n = int(rng.integers(2, 17))
            gamma = 0.3 if trial % 2 == 0 else 0.6
            a = random_stochastic(rng, n)
            got = pccl.pseudo_labels(a, gamma).values
            assert np.array_equal(got, exhaustive_pseudo_labels(a, gamma)), trial


def test_02_gradient_suite(capsys, toy_cfg):
    """Finite-difference checks for every differentiable op and for the full
    per-batch loss of each training objective.

    Budget: 60 seconds. Tolerance: 1e-5 for op-level checks, 1e-4 for
    end-to-end losses (relative error against central differences, h=1e-5).
    """
    with criterion(capsys, 2, "gradient suite vs finite differences", 60.0):
        # op-level: 20 seeded trials per op
        from test_autodiff import DIFF_OPS
        for name, case in sorted(DIFF_OPS.items()):
            base = zlib.crc32(name.encode())
            for trial in range(20):
                f, x = case(np.random.default_rng(10_000 + base + trial))
                assert grad_check(f, x) < 1e-5, f"{name} trial {trial}"

        # end-to-end: full training objective per loss kind
        teacher = frozen_teacher(toy_cfg)
        student = init_params(toy_cfg)
        from irvis.training import student_features
        batch = make_pretrain_pairs(1, seed=21)
        f_vf, labels = teacher_targets(batch, teacher, toy_cfg, 0.6)
        name = "blocks.0.proj.weight"

        def loss_fn(kind):
            def f(t):
                p = dict(student)
                p[name] = t
                # the objective as train_step builds it: one loss-table call
                # scores both branches of the batch's student features
                losses = pccl.LOSSES[kind](student_features(batch, p, toy_cfg),
                                           f_vf, labels, 0.04)
                return pccl.loss_pccl(losses[0], losses[1], 1.0, 1.0)
            return f

        for kind in pccl.LOSSES:
            err = grad_check(loss_fn(kind), student[name], sample=10, seed=3)
            assert err < 1e-4, kind


def test_03_adapter_identity_merge_roundtrip(capsys, toy_cfg):
    """Zero-initialized adapters are an exact identity; merged weights agree
    with the two-path forward on 100 random inputs within 1e-10; a
    merge/unmerge round trip recovers the base weights within 1e-12.
    """
    with criterion(capsys, 3, "adapter identity / merge equivalence"):
        params = init_params(toy_cfg)
        frozen = {k: Tensor(t.data.copy()) for k, t in params.items()}
        adapters = attach(params, LoraConfig(rank=4, dropout=0.0), seed=0)
        img = np.random.default_rng(0).random((3, 16, 16))
        assert np.array_equal(
            encode(img, params, toy_cfg, adapters=adapters).features.data,
            encode(img, frozen, toy_cfg).features.data)

        rng = np.random.default_rng(1)
        adapter = adapters["blocks.0.qkv"]
        adapter.B.data = rng.normal(size=adapter.B.shape)
        w = params["blocks.0.qkv.weight"]
        w_star = merge(w, adapter)
        worst = 0.0
        for _ in range(100):
            x = Tensor(rng.normal(size=(5, w.shape[0])))
            two = forward_adapted(x, w, adapter)
            worst = max(worst, np.abs(two.data - (x @ w_star).data).max())
        assert worst < 1e-10
        back = unmerge(w_star, adapter)
        assert np.abs(back.data - w.data).max() < 1e-12


def test_04_frozen_weights_immutable_over_200_steps(capsys, toy_cfg):
    """A 200-step adapter run leaves the teacher byte-identical and changes
    only adapter tensors and the position embedding in the student.
    """
    with criterion(capsys, 4, "frozen weights immutable over 200 steps"):
        teacher = frozen_teacher(toy_cfg)
        teacher_ref = tensorio.checkpoint_bytes(
            {k: t.data for k, t in teacher.items()})
        state = student_state(teacher, LoraConfig(rank=4, dropout=0.0), seed=0)
        student, adapters = state.params, state.adapters
        student_ref = {k: t.data.copy() for k, t in student.items()}
        cfg = TrainConfig(epochs=200, warmup_epochs=10, base_lr=1e-3,
                          batch_size=4, lora=LoraConfig(rank=4, dropout=0.0))
        batch = make_pretrain_pairs(4, seed=5)
        targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
        for _ in range(200):
            train_step(state, batch, targets, toy_cfg, cfg, lr_at(state.step, cfg, 1))
        assert state.step == 200
        assert tensorio.checkpoint_bytes(
            {k: t.data for k, t in teacher.items()}) == teacher_ref
        for k in student:
            if k == "pos_embed":
                continue
            assert np.array_equal(student[k].data, student_ref[k]), k
        assert any(np.abs(a.B.data).max() > 0 for a in adapters.values())


def test_05_analytic_pins(capsys):
    """Closed-form values: BCE at zero logits is ln 2 (±1e-12); orthonormal
    similarity diagonal is 1/tau (exact, = 25.0 at tau=0.04); symmetric NCE on
    uniform logits is 2 ln N (±1e-10); the lr schedule starts at 0, peaks at
    base_lr, and ends at 0 (±1e-12).
    """
    with criterion(capsys, 5, "analytic loss and schedule pins"):
        z = Tensor(np.zeros((4, 4)))
        t = np.eye(4)
        assert abs(float(ad.bce_with_logits(z, t).data) - np.log(2.0)) <= 1e-12

        e = Tensor(np.eye(6))
        s = pccl.similarity(e, e.data, 0.04)
        diag = np.diag(s.data)
        assert np.array_equal(diag, np.full(6, 1.0 / 0.04))
        assert np.allclose(diag, 25.0, atol=1e-12)

        for n in (4, 16):
            sm = Tensor(np.zeros((n, n)))
            diag = np.eye(n)  # NCE: the softmax loss on the diagonal positives
            nce = ad.masked_softmax_nll(sm, diag) + ad.masked_softmax_nll(sm, diag)
            assert abs(float(nce.data) - 2 * np.log(n)) <= 1e-10

        cfg = TrainConfig(epochs=8, warmup_epochs=2, base_lr=1.5e-4)
        assert lr_at(0, cfg, 10) == 0.0
        assert lr_at(20, cfg, 10) == cfg.base_lr
        assert abs(lr_at(80, cfg, 10)) <= 1e-12


def test_06_forgetting_grid_orderings(capsys):
    """The five-row grid reproduces the qualitative result: adapter training
    with the intra-visible term keeps visible-probe accuracy within one
    accuracy point of the frozen baseline while matching or improving the
    infrared probe. Budget: 15 minutes; deterministic given the seeds.
    """
    with criterion(capsys, 6, "forgetting grid orderings", 900.0):
        enc_cfg = EncoderConfig(seed=7)
        cfg = TrainConfig(epochs=8, warmup_epochs=1, base_lr=3e-3,
                          batch_size=4, lora=LoraConfig(), seed=0)
        report = forgetting_experiment(enc_cfg, cfg, seeds=(0, 1, 2, 3, 4),
                                       n_pairs=24, n_probe=32)
        by = {r["row"]: r for r in report}
        # training helps the new modality
        assert by["b"]["infrared_probe"] >= by["a"]["infrared_probe"]
        # the intra-visible term protects the old modality
        assert by["c"]["visible_probe"] >= by["b"]["visible_probe"]
        # adapters + intra-visible: no forgetting beyond one accuracy point
        assert by["e"]["visible_probe"] >= by["a"]["visible_probe"] - 0.01
        assert by["e"]["infrared_probe"] >= by["a"]["infrared_probe"]
        # adapters train a strict subset of the full parameter count
        assert 0 < by["e"]["trainable_params"] < by["b"]["trainable_params"]


def test_07_overfit_smoke(capsys, toy_cfg):
    """50 full-batch steps on 4 fixed pairs cut the contrastive loss by at
    least 50%.
    """
    with criterion(capsys, 7, "overfit smoke, >=50% loss reduction"):
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher)
        cfg = TrainConfig(epochs=50, warmup_epochs=0, base_lr=1e-2,
                          weight_decay=0.0, batch_size=4)
        batch = make_pretrain_pairs(4, seed=3)
        targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
        first = train_step(state, batch, targets, toy_cfg, cfg,
                           lr_at(state.step, cfg, 1))["loss"]
        last = first
        for _ in range(49):
            last = train_step(state, batch, targets, toy_cfg, cfg,
                              lr_at(state.step, cfg, 1))["loss"]
        assert last <= 0.5 * first, (first, last)


def test_08_seeded_runs_byte_identical(capsys, tmp_path):
    """Two pretraining runs from the same config produce byte-identical
    metrics logs and checkpoints.
    """
    with criterion(capsys, 8, "seeded reruns byte-identical"):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("epochs=2\nwarmup_epochs=1\nbase_lr=0.001\n"
                           "n_pairs=6\nbatch_size=4\nseed=4\n")
        for d in ("r1", "r2"):
            assert main(["pretrain", "--config", str(cfgfile),
                         "--out", str(tmp_path / d)]) == 0
        for name in ("metrics.jsonl", "teacher.ckpt", "initial.ckpt",
                     "final.ckpt", "best.ckpt"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes(), name


def test_09_data_contracts(capsys, tmp_path):
    """On-disk formats hold their published layouts: tensor container magic
    and record layout, tab-separated manifests, binary 8-bit PPM/PGM, JSONL
    metrics keys, and the adapter checkpoint's plain-text header.
    """
    with criterion(capsys, 9, "external data contracts"):
        # tensor container
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        tensorio.write_tensor(tmp_path / "t.tnsr", arr)
        raw = (tmp_path / "t.tnsr").read_bytes()
        assert raw[:8] == b"UNIVTNSR"
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:20], "little") == 2
        assert int.from_bytes(raw[20:28], "little") == 3
        assert np.array_equal(np.frombuffer(raw[28:], dtype="<f8").reshape(2, 3),
                              arr)

        # images
        img = np.random.default_rng(0).random((3, 5, 4))
        write_ppm(tmp_path / "a.ppm", img)
        assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6\n4 5\n255\n")
        assert read_ppm(tmp_path / "a.ppm").shape == (3, 5, 4)
        write_pgm(tmp_path / "a.pgm", img[:1])
        assert (tmp_path / "a.pgm").read_bytes().startswith(b"P5\n4 5\n255\n")
        assert read_pgm(tmp_path / "a.pgm").shape == (1, 5, 4)

        # generated dataset: manifest shape and metrics log schema
        assert main(["gen-data", "--out", str(tmp_path / "d"),
                     "--pairs", "2"]) == 0
        for line in (tmp_path / "d" / "manifest.tsv").read_text().splitlines():
            assert len(line.split("\t")) == 4
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("epochs=1\nwarmup_epochs=0\nn_pairs=2\n"
                           "lora_enabled=true\nlora_dropout=0.0\n")
        assert main(["pretrain", "--config", str(cfgfile),
                     "--out", str(tmp_path / "run")]) == 0
        for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines():
            assert list(json.loads(line)) == ["step", "lr", "loss", "l_iv",
                                              "l_vv"]
        head = (tmp_path / "run" / "adapters.ckpt").read_bytes().split(
            b"\n\n", 1)[0].decode("ascii")
        assert head.splitlines()[0].startswith("rank=")
        assert any(l.startswith("alpha=") for l in head.splitlines())
        assert any(l.startswith("dropout=") for l in head.splitlines())
