import contextlib
import io
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import irvis.autodiff as ad
import irvis.training as training
from irvis import data as datamod
from irvis import pccl, tensorio
from irvis.autodiff import grad_check
from irvis.cli import main
from irvis.encoder import EncoderConfig, encode, init_params
from irvis.errors import ConfigError, DataError, NumericError
from irvis.lora import LoraAdapter, LoraConfig, attach, dropout_mask
from irvis.training import (LOSS_KINDS, TrainConfig, _adamw_update,
                            forgetting_experiment,
                            frozen_teacher, linear_probe, lr_at,
                            make_labeled_scenes, make_pretrain_pairs,
                            pooled_features, run_training, student_state,
                            teacher_targets, to_channels, train_step,
                            trainable_map)
from conftest import same_bytes


class TestSchedule:
    CFG = TrainConfig(epochs=10, warmup_epochs=2, base_lr=1.5e-4)

    def lr(self, step):
        return lr_at(step, self.CFG, 5)  # 10 warmup steps, 50 in all

    def test_starts_at_zero(self):
        assert self.lr(0) == 0.0

    def test_peak_at_warmup_end_exact(self):
        assert self.lr(10) == self.CFG.base_lr

    def test_final_step_zero(self):
        assert abs(self.lr(50)) <= 1e-12
        assert self.lr(51) == 0.0

    def test_junction_continuity(self):
        # warmup approaches base_lr linearly; cosine starts at base_lr
        assert abs(self.lr(9) - self.CFG.base_lr * 9 / 10) <= 1e-18
        assert abs(self.lr(10) - self.lr(11)) < self.CFG.base_lr * 0.01

    def test_warmup_monotone_then_decay_monotone(self):
        vals = [self.lr(s) for s in range(51)]
        assert all(b > a for a, b in zip(vals[:10], vals[1:11]))
        assert all(b < a for a, b in zip(vals[10:50], vals[11:51]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=2, warmup_epochs=3)
        with pytest.raises(ConfigError):
            TrainConfig(loss_kind="triplet")
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=0.0)
        for bad in (dict(tau=0.0), dict(tau=float("nan")), dict(gamma=0.0),
                    dict(gamma=1.0), dict(alpha=-1.0), dict(beta=-0.5),
                    dict(alpha=float("inf")), dict(beta=float("inf")),
                    dict(warmup_epochs=-1), dict(epochs=-1, warmup_epochs=-1)):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(base_lr=float("inf")), dict(tau=float("inf")),
        dict(weight_decay=-1.0), dict(weight_decay=float("nan")),
        dict(weight_decay=float("inf")), dict(betas=(0.9, 2.0)),
        dict(betas=(0.9, 1.0)), dict(betas=(-0.1, 0.999)),
        dict(betas=(float("nan"), 0.999)),
    ], ids=repr)
    def test_optimizer_values_range_checked(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("bad, field", [
        (dict(betas=(0.9,)), "betas"), (dict(betas=(0.9, 0.99, 0.999)), "betas"),
        (dict(betas=0.9), "betas"), (dict(betas=("a", "b")), "betas"),
        (dict(batch_size=2.5), "batch_size"), (dict(epochs=2.5), "epochs"),
        (dict(warmup_epochs=1.0), "warmup_epochs"), (dict(seed=1.5), "seed"),
        (dict(epochs=True), "epochs"),
    ], ids=repr)
    def test_malformed_values_fail_at_construction(self, bad, field):
        # the CLI parses integers, so only the Python API can pass these
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**bad)

    def test_numpy_integers_are_counts(self):
        cfg = TrainConfig(epochs=np.int64(3), warmup_epochs=np.int32(1),
                          batch_size=np.int64(2), seed=np.uint8(4))
        assert cfg.epochs == 3 and cfg.batch_size == 2


class TestToChannels:
    def test_expand_gray(self):
        img = np.random.default_rng(0).random((1, 4, 4))
        out = to_channels(img, 3)
        assert out.shape == (3, 4, 4)
        assert all(np.array_equal(out[c], img[0]) for c in range(3))

    def test_collapse_rgb(self):
        img = np.random.default_rng(1).random((3, 4, 4))
        assert np.array_equal(to_channels(img, 1), img.mean(axis=0, keepdims=True))

    def test_identity_and_error(self):
        img = np.zeros((3, 4, 4))
        assert to_channels(img, 3) is img
        with pytest.raises(ConfigError):
            to_channels(np.zeros((2, 4, 4)), 3)


class TestTrainStep:
    def test_zero_coefficients_leave_params_untouched(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        for loss_kind in LOSS_KINDS:
            state = student_state(teacher)
            student = state.params
            before = {k: t.data.copy() for k, t in student.items()}
            cfg = TrainConfig(epochs=2, warmup_epochs=0, alpha=0.0, beta=0.0,
                              base_lr=1e-2, loss_kind=loss_kind)
            batch = make_pretrain_pairs(2, seed=0)
            metrics = train_step(state, batch,
                                 teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                                 toy_cfg, cfg, lr_at(0, cfg, 1))
            assert metrics["loss"] == 0.0, loss_kind
            for k in student:
                assert np.array_equal(student[k].data, before[k]), (loss_kind, k)

    def test_zero_lr_with_zero_weight_decay_freezes_params(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher)
        student = state.params
        before = {k: t.data.copy() for k, t in student.items()}
        # warmup covers the whole schedule, so step 0 sees lr exactly 0
        cfg = TrainConfig(epochs=1, warmup_epochs=1, base_lr=1e-2,
                          weight_decay=0.0)
        batch = make_pretrain_pairs(2, seed=0)
        train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                   toy_cfg, cfg, lr_at(0, cfg, 4))
        for k in student:
            assert np.array_equal(student[k].data, before[k]), k

    def test_non_finite_gradient_of_finite_loss_stops_step(self, toy_cfg, monkeypatch):
        def term(f_s, f_t, labels, tau):
            # every value stays finite; the gradient is 1e300 * 1e300 = inf
            return ad.mul(ad.mul(ad.mul(ad.tmean(f_s, split=True), 1e-300), 1e300), 1e300)

        monkeypatch.setitem(pccl.LOSSES, "mse", term)
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher)
        before = {k: t.data.copy() for k, t in state.params.items()}
        cfg = TrainConfig(epochs=1, warmup_epochs=0, loss_kind="mse")
        batch = make_pretrain_pairs(2, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"at step 0 .*non-finite gradient.*input of mul"):
            train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                       toy_cfg, cfg, lr_at(0, cfg, 1))
        for k, t in state.params.items():
            assert np.array_equal(t.data, before[k]), k

    def test_non_finite_update_stops_step_untouched(self, toy_cfg):
        # loss and gradients are finite; the decay term overflows in the update
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher)
        before = {k: t.data.copy() for k, t in state.params.items()}
        cfg = TrainConfig(epochs=1, warmup_epochs=0, base_lr=100.0, weight_decay=1e308)
        batch = make_pretrain_pairs(4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"at step 0 .*non-finite update of \S+\.weight"):
            train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                       toy_cfg, cfg, lr_at(0, cfg, 1))
        assert state.step == 0 and not state.moments and not state.log
        for k, t in state.params.items():
            assert np.array_equal(t.data, before[k]), k

    def test_step_retried_after_a_failure_equals_a_clean_step(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=1, warmup_epochs=0, lora=LoraConfig(), seed=3)
        failing = replace(cfg, base_lr=100.0, weight_decay=1e308)
        batch = make_pretrain_pairs(4, seed=0)
        targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
        retried, clean = (student_state(teacher, cfg.lora, seed=3) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            train_step(retried, batch, targets, toy_cfg, failing, 100.0)
        assert all(t.grad is None for t in trainable_map(retried).values())
        assert train_step(retried, batch, targets, toy_cfg, cfg, 1e-3) == \
            train_step(clean, batch, targets, toy_cfg, cfg, 1e-3)
        want = trainable_map(clean)
        for name, t in trainable_map(retried).items():
            assert np.array_equal(t.data, want[name].data), name
        assert all(np.array_equal(a, b) for a, b in zip(retried.moments, clean.moments))

    def test_alpha_beta_weight_nce(self, toy_cfg):
        # mse would not do: its visible term is exactly 0 at step 0
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, loss_kind="nce", alpha=1.0, beta=0.0)
        batch = make_pretrain_pairs(4, seed=1)
        m = train_step(student_state(teacher), batch,
                       teacher_targets(batch, teacher, toy_cfg, cfg.gamma), toy_cfg, cfg,
                       lr_at(0, cfg, 1))
        assert m["l_vv"] > 0.0
        assert m["loss"] == m["l_iv"]

    def test_metrics_schema(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher)
        cfg = TrainConfig(epochs=2, warmup_epochs=1)
        batch = make_pretrain_pairs(2, seed=1)
        m = train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                       toy_cfg, cfg, lr_at(0, cfg, 1))
        assert sorted(m) == ["l_iv", "l_vv", "loss", "lr", "step"]
        assert m["step"] == 0 and state.step == 1
        assert np.isfinite(m["loss"])

    def test_teacher_bytes_unchanged_by_run(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        ref = tensorio.checkpoint_bytes(teacher)
        state = student_state(teacher)
        cfg = TrainConfig(epochs=3, warmup_epochs=1, base_lr=1e-3, batch_size=4)
        run_training(make_pretrain_pairs(8, seed=2), teacher, state, toy_cfg, cfg)
        assert tensorio.checkpoint_bytes(teacher) == ref

    def test_lora_run_changes_adapters_and_pos_embed_only(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher, LoraConfig(rank=4, dropout=0.0), seed=0)
        student, adapters = state.params, state.adapters
        before = {k: t.data.copy() for k, t in student.items()}
        cfg = TrainConfig(epochs=3, warmup_epochs=1, base_lr=1e-3, batch_size=4,
                          lora=LoraConfig(rank=4, dropout=0.0))
        run_training(make_pretrain_pairs(8, seed=3), teacher, state, toy_cfg, cfg)
        for k in student:
            if k == "pos_embed":
                assert not np.array_equal(student[k].data, before[k])
            else:
                assert np.array_equal(student[k].data, before[k]), k
        assert any(np.abs(a.B.data).max() > 0 for a in adapters.values())

    def test_run_is_deterministic(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        logs = []
        for _ in range(2):
            state = student_state(teacher)
            cfg = TrainConfig(epochs=3, warmup_epochs=1, base_lr=1e-3,
                              batch_size=4, seed=5)
            run_training(make_pretrain_pairs(8, seed=4), teacher, state, toy_cfg,
                         cfg)
            logs.append(state.log)
        assert logs[0] == logs[1]

    def test_loss_decreases_on_fixed_batch(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher)
        cfg = TrainConfig(epochs=50, warmup_epochs=0, base_lr=1e-2,
                          weight_decay=0.0, batch_size=4)
        batch = make_pretrain_pairs(4, seed=3)
        targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
        first = train_step(state, batch, targets, toy_cfg, cfg,
                           lr_at(state.step, cfg, 1))["loss"]
        for _ in range(49):
            last = train_step(state, batch, targets, toy_cfg, cfg,
                              lr_at(state.step, cfg, 1))["loss"]
        assert last < 0.5 * first


def reference_train_step(state, batch, teacher, enc_cfg, cfg):
    """The step as one forward pass per image: per pair the teacher, then the
    infrared and the visible student pass, each drawing its own row of
    dropout draws from the step's generator; the loss averages the per-pair
    losses, each branch of each pair scored by its own loss-table call."""
    rng = np.random.default_rng(cfg.seed + state.step)
    term = pccl.LOSSES[cfg.loss_kind]

    def student(img):
        """(1, 1, N, dim): a branch axis of one and a batch of one."""
        masks = None
        if cfg.lora is not None and cfg.lora.dropout > 0.0:
            width = enc_cfg.num_patches * sum(a.A.shape[1] for a in state.adapters.values())
            masks = dropout_mask(rng.random((1, 1, width)), cfg.lora.dropout)
        return encode(img[None, None], state.params, enc_cfg, adapters=state.adapters,
                      masks=masks).features

    l_iv = l_vv = ad.Tensor(0.0)
    for sample in batch:
        vis = to_channels(sample.visible, enc_cfg.channels)
        ir = to_channels(sample.infrared, enc_cfg.channels)
        t = encode(vis, teacher, enc_cfg)
        # a batch of one
        f_t = t.features.data[None]
        labels = pccl.pseudo_labels(t.attention_last, cfg.gamma)[None]
        f_i, f_v = student(ir), student(vis)
        # each term is a (1,) vector, one branch, summed to its one entry
        l_iv = ad.add(l_iv, ad.tsum(term(f_i, f_t, labels, cfg.tau)))
        l_vv = ad.add(l_vv, ad.tsum(term(f_v, f_t, labels, cfg.tau)))
    l_iv, l_vv = ad.mul(l_iv, 1.0 / len(batch)), ad.mul(l_vv, 1.0 / len(batch))
    loss = ad.add(ad.mul(l_iv, cfg.alpha), ad.mul(l_vv, cfg.beta))
    loss.backward()
    _adamw_update(state, cfg, lr_at(state.step, cfg, 1), loss)
    state.step += 1
    return [float(x.data) for x in (loss, l_iv, l_vv)]


class TestBatchedStep:
    @pytest.mark.parametrize("loss_kind", LOSS_KINDS)
    @pytest.mark.parametrize("lora", [LoraConfig(rank=4, dropout=0.1), None],
                             ids=["lora", "full"])
    def test_matches_per_image_reference(self, toy_cfg, loss_kind, lora):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=2, warmup_epochs=0, lora=lora, loss_kind=loss_kind,
                          seed=4)
        batched, reference = (student_state(teacher, lora, seed=4) for _ in range(2))
        for batch in (make_pretrain_pairs(3, seed=8), make_pretrain_pairs(2, seed=9)):
            m = train_step(batched, batch,
                           teacher_targets(batch, teacher, toy_cfg, cfg.gamma), toy_cfg, cfg,
                           lr_at(batched.step, cfg, 1))
            expected = reference_train_step(reference, batch, teacher, toy_cfg, cfg)
            for got, want in zip((m["loss"], m["l_iv"], m["l_vv"]), expected):
                assert abs(got - want) <= 1e-12 * abs(want)
            want = trainable_map(reference)
            for name, t in trainable_map(batched).items():
                assert np.abs(t.data - want[name].data).max() <= 1e-12, name

    def test_teacher_sees_each_scene_once_per_run(self, toy_cfg, monkeypatch):
        teacher = frozen_teacher(toy_cfg)
        seen = []

        def counting_encode(img, params, *args, **kwargs):
            if params is teacher:
                assert len(img) <= cfg.batch_size
                seen.extend(image.tobytes() for image in img)
            return encode(img, params, *args, **kwargs)

        monkeypatch.setattr(training, "encode", counting_encode)
        pairs = make_pretrain_pairs(6, seed=10)
        cfg = TrainConfig(epochs=3, warmup_epochs=1, batch_size=4)
        for run in (1, 2):  # the targets live for one call
            run_training(pairs, teacher, student_state(teacher), toy_cfg, cfg)
            assert len(seen) == 6 * run and len(set(seen)) == 6

    def test_no_teacher_pass_when_no_step_runs(self, toy_cfg, monkeypatch):
        teacher = frozen_teacher(toy_cfg)
        calls = []

        def counting_encode(img, params, *args, **kwargs):
            if params is teacher:
                calls.append(len(img))
            return encode(img, params, *args, **kwargs)

        monkeypatch.setattr(training, "encode", counting_encode)
        cfg = TrainConfig(epochs=0, warmup_epochs=0, batch_size=4)
        state = student_state(teacher)
        assert run_training(make_pretrain_pairs(8, seed=10), teacher, state, toy_cfg,
                            cfg) is state
        assert calls == [] and state.step == 0 and state.log == []
        with pytest.raises(DataError):  # an empty sample set is still an error
            run_training([], teacher, state, toy_cfg, cfg)

    def test_run_equals_steps_on_per_batch_targets(self, toy_cfg):
        # run_training computes the targets once and slices them by position
        teacher = frozen_teacher(toy_cfg)
        lora = LoraConfig(rank=4, dropout=0.1)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=3, lora=lora, seed=1)
        pairs = make_pretrain_pairs(7, seed=11)
        ran = run_training(pairs, teacher, student_state(teacher, lora, seed=1),
                           toy_cfg, cfg)
        state = student_state(teacher, lora, seed=1)
        for epoch in range(cfg.epochs):  # ceil(7 / 3) = 3 steps per epoch
            for batch in datamod.batch(pairs, cfg.batch_size, seed=cfg.seed + epoch):
                train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                           toy_cfg, cfg, lr_at(state.step, cfg, 3))
        assert state.log == ran.log
        want = trainable_map(ran)
        for name, t in trainable_map(state).items():
            assert np.array_equal(t.data, want[name].data), name

    def test_frozen_teacher_is_the_init_params_dict_of_arrays(self, toy_cfg, monkeypatch):
        # the benchmark's tracer knows the teacher by the identity of this dict
        made = []

        def recording(cfg):
            made.append(init_params(cfg))
            return made[-1]

        monkeypatch.setattr(training, "init_params", recording)
        teacher = frozen_teacher(toy_cfg)
        assert len(made) == 1 and made[0] is teacher
        assert all(type(a) is np.ndarray for a in teacher.values())
        fresh = init_params(toy_cfg)
        assert list(teacher) == list(fresh)
        assert all(same_bytes(teacher[k], t.data) for k, t in fresh.items())

    def test_teacher_targets_are_plain_arrays(self, toy_cfg):
        # nothing on the teacher's side takes a gradient, so none of it is a Tensor
        teacher = frozen_teacher(toy_cfg)
        f_vf, labels = teacher_targets(make_pretrain_pairs(3, seed=0), teacher, toy_cfg, 0.6)
        assert type(f_vf) is np.ndarray
        assert f_vf.shape == (3, toy_cfg.num_patches, toy_cfg.dim)
        assert type(labels) is np.ndarray
        assert labels.shape == (3, toy_cfg.num_patches, toy_cfg.num_patches)


def per_tensor_adamw(moments):
    """The AdamW update as one pass per tensor, with ``moments`` keyed by name:
    the reference the flat update must equal byte for byte."""
    def update(state, cfg, lr, loss):
        b1, b2 = cfg.betas
        t = state.step + 1
        for name, p in sorted(trainable_map(state).items()):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = moments.get(name, (0.0, 0.0))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** t)
            vhat = v / (1.0 - b2 ** t)
            moments[name] = (m, v)
            p.data = p.data - lr * (mhat / (np.sqrt(vhat) + training.ADAM_EPS)
                                    + cfg.weight_decay * p.data)
            p.grad = None
    return update


class TestFlatAdamW:
    @pytest.mark.parametrize("lora", [LoraConfig(rank=4, dropout=0.1), None],
                             ids=["lora", "full"])
    def test_equals_per_tensor_update(self, toy_cfg, lora, monkeypatch):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=5, warmup_epochs=0, base_lr=1e-2, lora=lora, seed=2)
        flat, ref = (student_state(teacher, lora, seed=2) for _ in range(2))
        moments = {}
        for step in range(5):
            batch = make_pretrain_pairs(2, seed=20 + step)
            targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
            lr = lr_at(step, cfg, 1)
            got = train_step(flat, batch, targets, toy_cfg, cfg, lr)
            with monkeypatch.context() as patch:
                patch.setattr(training, "_adamw_update", per_tensor_adamw(moments))
                want = train_step(ref, batch, targets, toy_cfg, cfg, lr)
            assert got == want, step
            want_map = trainable_map(ref)
            for name, t in trainable_map(flat).items():
                assert np.array_equal(t.data, want_map[name].data), (step, name)
            for i, flat_moment in enumerate(flat.moments):
                assert np.array_equal(flat_moment, np.concatenate(
                    [moments[name][i].reshape(-1) for name in sorted(moments)]))

    @pytest.mark.parametrize("lora", [LoraConfig(), None], ids=["lora", "full"])
    def test_snapshots_of_weights_do_not_change(self, toy_cfg, lora):
        # `irvis pretrain` keeps the trainable arrays of the best step by
        # reference: an update must give each trainable tensor a new array
        # and leave the frozen tensors' arrays as they are
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher, lora)
        cfg = TrainConfig(epochs=2, warmup_epochs=0, base_lr=1e-2, lora=lora)
        batch = make_pretrain_pairs(2, seed=0)
        targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
        frozen = {k: t.data for k, t in state.params.items() if not t.requires_grad}
        assert bool(frozen) == (lora is not None)
        for step in range(2):  # the second step updates slices of the first's array
            held = {k: t.data for k, t in trainable_map(state).items()}
            copies = {k: a.tobytes() for k, a in held.items()}
            train_step(state, batch, targets, toy_cfg, cfg, lr_at(step, cfg, 1))
            now = trainable_map(state)
            for k, a in held.items():
                assert a.tobytes() == copies[k], (step, k)
                assert now[k].data.tobytes() != copies[k], (step, k)
            for k, a in frozen.items():
                assert state.params[k].data is a, (step, k)

    def test_default_lora_step_records_29_tape_nodes(self, monkeypatch):
        # 5 for the patch stage (the adapted linear and its adapter's A and B,
        # pos_embed and its add), 9 per block (one block node and its 4
        # adapters' A and B) and 6 for the final norm and the loss: frozen
        # weights, the patches and the teacher's features take no gradient,
        # so they are not recorded, and the batch is stacked branch-first
        enc = EncoderConfig()
        teacher = frozen_teacher(enc)
        cfg = TrainConfig(lora=LoraConfig())
        state = student_state(teacher, cfg.lora)
        counts, ops = [], []
        backward = ad.Tensor.backward

        def counting(self):
            nodes = ad._topo(self)
            counts.append(len(nodes))
            ops.append(sorted(n._op for n in nodes if n._op is not None))
            backward(self)

        monkeypatch.setattr(ad.Tensor, "backward", counting)
        batch = make_pretrain_pairs(4, seed=0)
        train_step(state, batch, teacher_targets(batch, teacher, enc, cfg.gamma),
                   enc, cfg, 1e-3)
        assert counts == [29]
        assert ops == [sorted(["linear", "add", "block", "block", "layernorm",
                               "cosine_rows", "mul", "mul", "bce_with_logits", "sum"])]


class TestStepBuffers:
    def test_adamw_equals_its_former_expressions(self, toy_cfg):
        # the in-place update against the flat expressions it was written as
        state = student_state(frozen_teacher(toy_cfg), LoraConfig(rank=4), seed=5)
        cfg = TrainConfig(base_lr=1e-2, weight_decay=0.05)
        rng = np.random.default_rng(5)
        moments = None
        for step, lr in enumerate((1e-2, 3e-3, 0.0)):
            named = sorted(trainable_map(state).items())
            for i, (_, t) in enumerate(named):
                g = rng.normal(size=t.shape)
                g.reshape(-1)[::5] = -0.0  # -0.0 + 0.0 is 0.0: the first step adds it
                t.grad = None if i == 3 else g
            g = np.concatenate([(t.grad if t.grad is not None else np.zeros(t.shape))
                                .reshape(-1) for _, t in named])
            w = np.concatenate([t.data.reshape(-1) for _, t in named])
            b1, b2 = cfg.betas
            m, v = moments or (0.0, 0.0)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** (step + 1))
            vhat = v / (1.0 - b2 ** (step + 1))
            want = w - lr * (mhat / (np.sqrt(vhat) + training.ADAM_EPS)
                             + cfg.weight_decay * w)
            moments = (m, v)
            _adamw_update(state, cfg, lr, None)
            state.step += 1
            got = np.concatenate([t.data.reshape(-1) for _, t in named])
            assert same_bytes(got, want), step
            for got_moment, want_moment in zip(state.moments, moments, strict=True):
                assert same_bytes(got_moment, want_moment), step

    def test_no_two_tape_tensors_share_a_gradient_buffer(self, monkeypatch):
        enc = EncoderConfig()
        teacher = frozen_teacher(enc)
        cfg = TrainConfig(lora=LoraConfig())
        state = student_state(teacher, cfg.lora)
        seen = []
        backward = ad.Tensor.backward

        def checking(self):
            nodes = ad._topo(self)
            before = [n.data.copy() for n in nodes]
            backward(self)
            grads = [n.grad for n in nodes if n.requires_grad]
            assert all(g is not None for g in grads)
            for i, a in enumerate(grads):
                for b in grads[i + 1:]:
                    assert not np.shares_memory(a, b)
            for n, data in zip(nodes, before):
                assert same_bytes(n.data, data), n._op
            seen.append((len(nodes), len(grads)))

        monkeypatch.setattr(ad.Tensor, "backward", checking)
        batch = make_pretrain_pairs(4, seed=0)
        train_step(state, batch, teacher_targets(batch, teacher, enc, cfg.gamma),
                   enc, cfg, 1e-3)
        # 19 trainable leaves and the 10 op nodes above them, and nothing else
        assert seen == [(29, 29)]

    def test_whole_block_masks_equal_the_rule_per_segment(self, monkeypatch):
        # the nine adapted layers' inputs, in the order the encoder runs them
        shapes = [(6, 16, 48)] + [(6, 16, k) for _ in range(2) for k in (32, 32, 32, 128)]
        cfg = EncoderConfig()
        params = init_params(cfg)
        adapters = attach(params, LoraConfig(dropout=0.3), seed=0)
        seen, branch = [], LoraAdapter.branch
        monkeypatch.setattr(LoraAdapter, "branch",
                            lambda self, mask=None: seen.append(mask) or branch(self, mask))
        uniforms = np.random.default_rng(6).random((6, sum(math.prod(s[1:]) for s in shapes)))
        encode(np.random.default_rng(7).random((6, 3, 16, 16)), params, cfg,
               adapters=adapters, masks=dropout_mask(uniforms, 0.3))
        col = 0
        for shape, mask in zip(shapes, seen, strict=True):
            width = math.prod(shape[1:])
            u = uniforms[:, col:col + width]
            col += width
            assert same_bytes(mask, dropout_mask(u, 0.3).reshape(shape)), shape

    def test_one_probability_writes_its_mask_over_the_draws(self, toy_cfg, monkeypatch):
        teacher = frozen_teacher(toy_cfg)
        lora = LoraConfig(rank=4, dropout=0.1)
        cfg = TrainConfig(epochs=1, warmup_epochs=0, lora=lora, seed=2)
        state = student_state(teacher, lora, seed=2)
        batch = make_pretrain_pairs(2, seed=0)
        targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
        blocks, masks = [], []
        encode_fn, branch = training.encode, LoraAdapter.branch
        monkeypatch.setattr(training, "encode",
                            lambda *a, **kw: blocks.append(kw["masks"]) or encode_fn(*a, **kw))
        monkeypatch.setattr(LoraAdapter, "branch",
                            lambda self, mask=None: masks.append(mask) or branch(self, mask))
        train_step(state, batch, targets, toy_cfg, cfg, 1e-3)
        [block] = blocks
        width = toy_cfg.num_patches * sum(a.A.shape[1] for a in state.adapters.values())
        uniforms = np.random.default_rng(cfg.seed).random((4, width))
        # encode reads the draws branch-first, as a (2, B, cols) view
        assert same_bytes(block, dropout_mask(uniforms, 0.1).reshape(2, 2, width).swapaxes(0, 1))
        assert len(masks) == 9
        assert all(np.shares_memory(mask, block) for mask in masks)

    def test_each_image_cuts_its_masks_from_its_interleaved_draw_row(self, toy_cfg,
                                                                     monkeypatch):
        # pair i's infrared image takes draw row 2i and its visible image row
        # 2i + 1, segment by segment in the order the adapted layers run
        teacher = frozen_teacher(toy_cfg)
        lora = LoraConfig(rank=4, dropout=0.3)
        cfg = TrainConfig(epochs=1, warmup_epochs=0, lora=lora, seed=5)
        state = student_state(teacher, lora, seed=5)
        batch = make_pretrain_pairs(3, seed=1)
        masks, branch = [], LoraAdapter.branch
        monkeypatch.setattr(LoraAdapter, "branch",
                            lambda self, mask=None: masks.append(mask) or branch(self, mask))
        train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                   toy_cfg, cfg, 1e-3)
        width = toy_cfg.num_patches * sum(a.A.shape[1] for a in state.adapters.values())
        rows = dropout_mask(np.random.default_rng(cfg.seed).random((6, width)), 0.3)
        assert len(masks) == 9
        col = 0
        for mask in masks:
            assert mask.shape[:2] == (2, 3)
            segment = math.prod(mask.shape[2:])
            for modality, i in np.ndindex(2, 3):
                assert same_bytes(mask[modality, i].reshape(-1),
                                  rows[2 * i + modality, col:col + segment]), (col, modality, i)
            col += segment
        assert col == width

    def test_adapters_need_a_lora_config(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        state = student_state(teacher, LoraConfig(rank=4), seed=0)
        batch = make_pretrain_pairs(2, seed=0)
        cfg = TrainConfig(epochs=1, warmup_epochs=0)
        with pytest.raises(ConfigError, match="no lora"):
            train_step(state, batch, teacher_targets(batch, teacher, toy_cfg, cfg.gamma),
                       toy_cfg, cfg, 1e-3)
        assert state.step == 0 and not state.log

    def test_a_layer_keeps_its_input_only_for_its_weight_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4))
        lora = (ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True),
                ad.Tensor(rng.normal(size=(5, 2)), requires_grad=True), 1.5,
                (rng.random(x.shape) >= 0.3) / 0.7)
        for trainable in (False, True):
            w = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=trainable)
            b = ad.Tensor(rng.normal(size=5), requires_grad=True)
            cache = ad._run_linear(x, (w, b, lora))[1]
            # the adapter branch keeps its masked input, a new array
            assert not any(a is x for a in cache[1:] if isinstance(a, np.ndarray))
            assert (cache[0] is x) == trainable


def stepped_by_hand(pairs, teacher, state, enc_cfg, cfg):
    """``run_training``'s steps, one ``train_step`` call each, every step
    drawing its own dropout masks inline."""
    steps_per_epoch = -(-len(pairs) // cfg.batch_size)
    for epoch in range(cfg.epochs):
        for batch in datamod.batch(pairs, cfg.batch_size, seed=cfg.seed + epoch):
            train_step(state, batch, teacher_targets(batch, teacher, enc_cfg, cfg.gamma),
                       enc_cfg, cfg, lr_at(state.step, cfg, steps_per_epoch))
    return state


def assert_same_state(got, want):
    assert got.step == want.step and got.log == want.log
    mine, theirs = trainable_map(got), trainable_map(want)
    assert list(mine) == list(theirs)
    for name, t in mine.items():
        assert same_bytes(t.data, theirs[name].data), name
    assert all(same_bytes(a, b) for a, b in zip(got.moments, want.moments, strict=True))


class TestMasksDrawnAhead:
    """Each step draws its dropout masks ahead of its forward pass, in place:
    ``run_training`` hands every step one buffer, and the steps see the bytes
    of the draws a step makes into a block of its own.  No thread starts."""

    LORA = LoraConfig(rank=4, dropout=0.3)

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads started while the test runs."""
        started, start = [], threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        return started

    def test_equals_inline_draws_with_a_partial_final_batch(self, toy_cfg):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=3, lora=self.LORA, seed=2)
        pairs = make_pretrain_pairs(7, seed=12)  # batches of 3, 3 and 1 per epoch
        ran = run_training(pairs, teacher, student_state(teacher, self.LORA, seed=2),
                           toy_cfg, cfg)
        by_hand = stepped_by_hand(pairs, teacher, student_state(teacher, self.LORA, seed=2),
                                  toy_cfg, cfg)
        assert_same_state(ran, by_hand)

    def test_equals_inline_draws_on_a_resumed_state(self, toy_cfg):
        # the second call starts at step 6: its masks come from seeds 7 to 18
        teacher = frozen_teacher(toy_cfg)
        first = TrainConfig(epochs=2, warmup_epochs=1, batch_size=3, lora=self.LORA, seed=1)
        second = replace(first, epochs=4)
        pairs = make_pretrain_pairs(7, seed=13)
        ran, by_hand = (student_state(teacher, self.LORA, seed=1) for _ in range(2))
        for cfg in (first, second):
            run_training(pairs, teacher, ran, toy_cfg, cfg)
            stepped_by_hand(pairs, teacher, by_hand, toy_cfg, cfg)
            assert_same_state(ran, by_hand)
        assert ran.step == 18

    def test_partial_batch_draws_into_the_buffer_prefix(self, toy_cfg, monkeypatch):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=3, lora=self.LORA, seed=4)
        state = student_state(teacher, self.LORA, seed=4)
        width = training._mask_width(state.adapters, toy_cfg)
        step, seen = training.train_step, []

        def recording(state, batch, *args):
            seed = cfg.seed + state.step
            out = step(state, batch, *args)
            seen.append((seed, len(batch), args[-1], args[-1].copy()))
            return out

        monkeypatch.setattr(training, "train_step", recording)
        run_training(make_pretrain_pairs(7, seed=16), teacher, state, toy_cfg, cfg)
        assert [(seed, n) for seed, n, *_ in seen] == [(4, 3), (5, 3), (6, 1)]
        assert all(buf is seen[0][2] for *_, buf, _ in seen)
        assert seen[0][2].shape == (6, width)
        for seed, n, _, after in seen:
            fresh = dropout_mask(np.random.default_rng(seed).random((2 * n, width)), 0.3)
            assert same_bytes(after[:2 * n], fresh), seed
        # the partial batch writes its two rows and leaves the rest as it found them
        assert same_bytes(seen[2][3][2:], seen[1][3][2:])

    def test_draw_error_raised_at_the_step_that_needs_it(self, toy_cfg, monkeypatch):
        error, draw, steps = MemoryError("from the draw"), training._dropout_block, []

        def failing_at_step_2(seed, *args):
            if seed == 3 + 2:
                raise error
            return draw(seed, *args)

        monkeypatch.setattr(training, "_dropout_block", failing_at_step_2)
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=2, lora=self.LORA, seed=3)
        with pytest.raises(MemoryError) as info:
            run_training(make_pretrain_pairs(6, seed=14), teacher,
                         student_state(teacher, self.LORA, seed=3), toy_cfg, cfg,
                         on_step=lambda m: steps.append(m["step"]))
        assert info.value is error and steps == [0, 1]

    @pytest.mark.parametrize("lora, epochs", [(None, 1), (LoraConfig(rank=4, dropout=0.0), 1),
                                              (LORA, 0)], ids=["full", "dropout-0", "epochs-0"])
    def test_no_worker_without_draws(self, toy_cfg, started, lora, epochs):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=epochs, warmup_epochs=0, batch_size=2, lora=lora)
        state = run_training(make_pretrain_pairs(4, seed=15), teacher,
                             student_state(teacher, lora), toy_cfg, cfg)
        assert state.step == 2 * epochs and started == []

    def test_no_thread_starts_while_masks_are_drawn(self, toy_cfg, started, tmp_path):
        teacher = frozen_teacher(toy_cfg)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=3, lora=self.LORA)
        state = run_training(make_pretrain_pairs(5, seed=15), teacher,
                             student_state(teacher, self.LORA), toy_cfg, cfg)
        assert state.step == 4
        config = tmp_path / "c.cfg"
        config.write_text("image_size=8\ndepth=1\ndim=8\nheads=2\nn_pairs=3\nepochs=1\n"
                          "warmup_epochs=0\nbatch_size=2\nlora_enabled=true\nlora_rank=2\n"
                          "lora_dropout=0.3\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pretrain", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert started == []


class TestEndToEndGradients:
    @pytest.mark.parametrize("loss_kind", ["pccl", "mse", "nce",
                                           "pccl_softmax_variant"])
    def test_param_gradient_matches_finite_differences(self, toy_cfg, loss_kind):
        teacher = frozen_teacher(toy_cfg)
        student = student_state(teacher).params
        batch = make_pretrain_pairs(1, seed=6)
        f_vf, labels = teacher_targets(batch, teacher, toy_cfg, 0.6)
        name = "blocks.1.qkv.weight"

        def full_loss(t):
            p = dict(student)
            p[name] = t
            # the objective as train_step builds it: one loss-table call
            # scores both branches of the batch's student features
            losses = pccl.LOSSES[loss_kind](training.student_features(batch, p, toy_cfg),
                                            f_vf, labels, 0.04)
            return pccl.loss_pccl(losses, 1.0, 1.0)

        err = grad_check(full_loss, student[name], sample=12, seed=2)
        assert err < 1e-4, loss_kind


class TestProbe:
    def test_separable_features_give_perfect_accuracy(self):
        rng = np.random.default_rng(7)
        n = 20
        labels = ["a" if i % 4 < 2 else "b" for i in range(n)]
        feats = rng.normal(size=(n, 6)) * 0.01
        feats[:, 0] += [5.0 if lab == "a" else -5.0 for lab in labels]
        assert linear_probe(feats, labels) == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(200, 4))
        labels = list(rng.choice(["a", "b"], size=200))
        assert linear_probe(feats, labels) < 0.75

    def test_single_class_returns_prior(self):
        feats = np.random.default_rng(9).normal(size=(6, 3))
        assert linear_probe(feats, ["a"] * 6) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            linear_probe(np.zeros((4, 2)), ["a", "b"])
        with pytest.raises(ConfigError):
            linear_probe(np.zeros((1, 2)), ["a"])

    def test_labeled_scenes_balanced_across_split(self):
        _, labels = make_labeled_scenes(16, seed=0)
        even = {labels[i] for i in range(0, 16, 2)}
        odd = {labels[i] for i in range(1, 16, 2)}
        assert even == odd == {"person", "vehicle"}


class TestForgettingGrid:
    def test_tiny_grid_shape_and_ordering(self, toy_cfg):
        cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=3e-3, batch_size=4,
                          lora=LoraConfig(rank=4, dropout=0.0), seed=0)
        report = forgetting_experiment(toy_cfg, cfg, seeds=(0,), n_pairs=4,
                                       n_probe=8)
        assert [r["row"] for r in report] == ["a", "b", "c", "d", "e"]
        by_row = {r["row"]: r for r in report}
        assert by_row["a"]["trainable_params"] == 0
        assert by_row["d"]["trainable_params"] < by_row["b"]["trainable_params"]
        assert by_row["d"]["uses_lora"] and not by_row["d"]["uses_vv"]
        for r in report:
            assert 0.0 <= r["visible_probe"] <= 1.0
            assert 0.0 <= r["infrared_probe"] <= 1.0

    @staticmethod
    def row_major_grid(enc_cfg, cfg, seeds, n_pairs, n_probe):
        """The grid as it was written before it became seed-major: rows outside
        seeds, each seed's pairs and probe scenes rebuilt for every row."""
        teacher = frozen_teacher(enc_cfg)
        report = []
        for row_name, row in training.GRID_ROWS:
            vis_scores, ir_scores = [], []
            trainable = 0
            for seed in seeds:
                lora = (cfg.lora or LoraConfig()) if row["use_lora"] else None
                run_cfg = replace(cfg, seed=cfg.seed + seed,
                                  beta=cfg.beta if row["use_vv"] else 0.0, lora=lora)
                state = student_state(teacher, run_cfg.lora, seed=run_cfg.seed)
                if row["train"]:
                    pairs = make_pretrain_pairs(n_pairs, seed=run_cfg.seed,
                                                height=enc_cfg.image_size,
                                                width=enc_cfg.image_size)
                    run_training(pairs, teacher, state, enc_cfg, run_cfg)
                trainable = sum(t.size for t in trainable_map(state).values())
                probes = make_labeled_scenes(n_probe, seed=1000 + seed,
                                             height=enc_cfg.image_size,
                                             width=enc_cfg.image_size)
                ir, vis = (linear_probe(features, probes[1]) for features in pooled_features(
                    probes[0], state.params, enc_cfg, state.adapters))
                vis_scores.append(vis)
                ir_scores.append(ir)
            report.append({
                "row": row_name,
                "uses_vv": row["use_vv"],
                "uses_lora": row["use_lora"],
                "trainable_params": trainable if row["train"] else 0,
                "visible_probe": float(np.median(vis_scores)),
                "infrared_probe": float(np.median(ir_scores)),
            })
        return report

    def test_equals_the_row_major_loop(self, toy_cfg):
        # cfg.seed = 3: the pairs' seed (3 + seed) differs from the probes' (1000 + seed)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=3e-3, batch_size=4,
                          lora=LoraConfig(rank=4, dropout=0.1), seed=3)
        args = (toy_cfg, cfg, (0, 1), 6, 8)
        assert forgetting_experiment(*args) == self.row_major_grid(*args)

    def test_training_and_probes_write_nothing_into_samples(self, toy_cfg):
        pairs = make_pretrain_pairs(6, seed=2, height=toy_cfg.image_size,
                                    width=toy_cfg.image_size)
        probes, labels = make_labeled_scenes(8, seed=1002, height=toy_cfg.image_size,
                                             width=toy_cfg.image_size)
        before = [(s.visible.copy(), s.infrared.copy()) for s in pairs + probes]
        teacher = frozen_teacher(toy_cfg)
        for lora in (LoraConfig(rank=4, dropout=0.1), None):
            cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=3e-3, batch_size=4,
                              lora=lora, seed=2)
            state = student_state(teacher, lora, seed=cfg.seed)
            run_training(pairs, teacher, state, toy_cfg, cfg)
            for features in pooled_features(probes, state.params, toy_cfg, state.adapters):
                linear_probe(features, labels)
        for s, (vis, ir) in zip(pairs + probes, before, strict=True):
            assert same_bytes(s.visible, vis) and same_bytes(s.infrared, ir)


def test_pooled_features_shape(toy_cfg, toy_params):
    samples, _ = make_labeled_scenes(4, seed=1)
    ir, vis = pooled_features(samples, toy_params, toy_cfg)
    assert ir.shape == vis.shape == (4, toy_cfg.dim)
    assert not np.array_equal(vis, ir)


def test_pooled_features_equal_per_image_means_without_a_tape(toy_cfg, monkeypatch):
    state = student_state(frozen_teacher(toy_cfg), LoraConfig(rank=4), seed=1)
    for a in state.adapters.values():
        a.B.data = np.full(a.B.shape, 0.01)
    samples, _ = make_labeled_scenes(5, seed=2)
    taped = []

    def recording_encode(*args, **kwargs):
        out = encode(*args, **kwargs)
        taped.append(out.features.requires_grad)
        return out

    monkeypatch.setattr(training, "encode", recording_encode)
    per_image = [[encode(to_channels(getattr(s, modality), toy_cfg.channels),
                         state.params, toy_cfg, adapters=state.adapters
                         ).features.data.mean(axis=0)
                  for s in samples]
                 for modality in ("infrared", "visible")]
    # one pass for both modalities, in the rows' order: infrared, visible
    assert same_bytes(pooled_features(samples, state.params, toy_cfg, state.adapters),
                      np.array(per_image))
    assert taped == [False]
    with pytest.raises(DataError):
        pooled_features([], state.params, toy_cfg)


def test_trainable_map_respects_flags(toy_cfg):
    state = student_state(frozen_teacher(toy_cfg))
    student = state.params
    assert sorted(trainable_map(state)) == sorted(student)
    student["norm.weight"].requires_grad = False
    assert "norm.weight" not in trainable_map(state)
