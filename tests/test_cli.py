import contextlib
import io
import json
import re
import shlex
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irvis import tensorio, training
from irvis.cli import _SCHEMA, build_configs, build_parser, main, parse_config
from irvis.data import (SCENE_CLASSES, SceneSpec, gen_scene, make_labeled_scenes,
                        make_pretrain_pairs, read_manifest, read_pgm, read_ppm, write_pgm,
                        write_ppm)
from irvis.encoder import EncoderConfig, init_params
from irvis.errors import ConfigError
from irvis.lora import LoraConfig, adapters_from_tensors, merge
from irvis.training import TrainConfig


def write_config(path, **overrides):
    base = dict(epochs=2, warmup_epochs=1, base_lr=0.001, n_pairs=6,
                batch_size=4, n_probe=8, grid_seeds=1)
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenData:
    def test_zero_pairs(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           "--pairs", "0")
        assert code == 0
        assert read_manifest(tmp_path / "d" / "manifest.tsv") == []

    def test_night_fraction_and_grouping(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                         "--pairs", "8", "--night-fraction", "0.5")
        assert code == 0
        entries = read_manifest(tmp_path / "d" / "manifest.tsv")
        assert len(entries) == 8
        night = [e for e in entries if e.scene_id.endswith("-night")]
        assert len(night) == 4
        assert all(e.sequence_id == "seq0" for e in entries)
        for e in entries:
            assert (tmp_path / "d" / e.visible_path).exists()
            assert (tmp_path / "d" / e.infrared_path).exists()

    def test_pixels_are_the_scene_pairs_quantised(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-data", "--out", str(tmp_path), "--pairs", "8",
                         "--seed", "4", "--night-fraction", "0.25")
        assert code == 0
        entries = read_manifest(tmp_path / "manifest.tsv")
        samples = make_pretrain_pairs(8, seed=4, night_fraction=0.25,
                                      classes=SCENE_CLASSES)
        assert [e.scene_id.endswith("-night") for e in entries] == [False] * 6 + [True] * 2
        for e, sample in zip(entries, samples, strict=True):
            for read, path, img in ((read_ppm, e.visible_path, sample.visible),
                                    (read_pgm, e.infrared_path, sample.infrared)):
                assert np.array_equal(read(tmp_path / path),
                                      np.rint(img * 255.0) / 255.0), e.scene_id

    def test_rerun_byte_identical(self, tmp_path, capsys):
        for d in ("a", "b"):
            code, _, _ = run(capsys, "gen-data", "--out", str(tmp_path / d),
                             "--pairs", "4", "--seed", "9")
            assert code == 0
        for name in [e.visible_path for e in
                     read_manifest(tmp_path / "a" / "manifest.tsv")] + ["manifest.tsv"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_missing_required_arg_exit_1(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-data", "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("fraction", ["nan", "inf", "-0.1", "1.5"])
    def test_night_fraction_out_of_range_exit_1(self, tmp_path, capsys, fraction):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           "--pairs", "4", "--night-fraction", fraction)
        assert code == 1 and "night_fraction" in err, err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("pairs,seed", [("2", "-1"), ("-2", "0")])
    def test_negative_count_or_seed_exit_1(self, tmp_path, capsys, pairs, seed):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                           "--pairs", pairs, "--seed", seed)
        assert code == 1 and err.startswith("error: --pairs and --seed"), err
        assert not (tmp_path / "d").exists()


class TestPretrain:
    def test_epochs_zero_writes_initial_only(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", epochs=0, warmup_epochs=0)
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "pretrain", "--config", str(cfgfile),
                              "--out", str(out))
        assert code == 0
        assert "initial checkpoint only" in stdout
        assert (out / "teacher.ckpt").exists() and (out / "initial.ckpt").exists()
        assert not (out / "final.ckpt").exists()

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("learnig_rate=0.1\n")
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert "learnig_rate" in err

    def test_tiny_run_outputs(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg")
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "pretrain", "--config", str(cfgfile),
                              "--out", str(out))
        assert code == 0
        for name in ("teacher.ckpt", "initial.ckpt", "final.ckpt", "best.ckpt",
                     "metrics.jsonl"):
            assert (out / name).exists(), name
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2  # epochs * ceil(6/4) batches
        for i, line in enumerate(lines):
            m = json.loads(line)
            assert list(m) == ["step", "lr", "loss", "l_iv", "l_vv"]
            assert m["step"] == i
        # config echo names every resolved key
        assert "config: tau=0.04" in stdout

    def test_lora_run_writes_adapters(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", lora_enabled="true",
                               lora_rank=4, lora_dropout=0.0)
        out = tmp_path / "run"
        code, _, _ = run(capsys, "pretrain", "--config", str(cfgfile),
                         "--out", str(out))
        assert code == 0
        named, meta = tensorio.read_adapter_checkpoint(out / "adapters.ckpt")
        assert meta["rank"] == 4
        assert any(n.endswith(".lora_A") for n in named)

    def test_seeded_reruns_byte_identical(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", seed=3)
        for d in ("r1", "r2"):
            code, _, _ = run(capsys, "pretrain", "--config", str(cfgfile),
                             "--out", str(tmp_path / d))
            assert code == 0
        for name in ("metrics.jsonl", "teacher.ckpt", "final.ckpt", "best.ckpt"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes(), name

    @staticmethod
    def _lowest_loss_start(tmp_path, capsys, monkeypatch, **cfg):
        """Run ``pretrain`` and return its output directory and the trainable
        weights its lowest-loss step started from.  A step's loss is measured
        before its update, on the weights it starts from."""
        started_from = []
        step = training.train_step

        def recording(state, *args, **kwargs):
            started_from.append({k: t.data.copy()
                                 for k, t in training.trainable_map(state).items()})
            return step(state, *args, **kwargs)

        monkeypatch.setattr(training, "train_step", recording)
        cfgfile = write_config(tmp_path / "c.cfg", model_seed=7, epochs=3,
                               warmup_epochs=0, batch_size=4, n_pairs=8, **cfg)
        out = tmp_path / "run"
        code, _, _ = run(capsys, "pretrain", "--config", str(cfgfile), "--out", str(out))
        assert code == 0
        losses = [json.loads(line)["loss"]
                  for line in (out / "metrics.jsonl").read_text().splitlines()]
        best = int(np.argmin(losses))
        assert 0 < best < len(losses) - 1  # neither the initial nor the final weights
        return out, started_from[best]

    def test_best_checkpoint_holds_the_weights_its_loss_scored(self, tmp_path, capsys,
                                                               monkeypatch):
        out, want = self._lowest_loss_start(tmp_path, capsys, monkeypatch,
                                            seed=1, base_lr=0.003)
        got = tensorio.read_checkpoint(out / "best.ckpt")
        assert sorted(got) == sorted(want)
        for name, arr in want.items():
            assert np.array_equal(got[name], arr), name

    def test_lora_best_checkpoints_hold_the_weights_their_loss_scored(
            self, tmp_path, capsys, monkeypatch):
        # best.ckpt and best_adapters.ckpt hold the trainable weights the
        # lowest-loss step started from, over the frozen base weights
        out, want = self._lowest_loss_start(tmp_path, capsys, monkeypatch, seed=2,
                                            base_lr=0.01, lora_enabled="true", lora_rank=4)
        base = tensorio.read_checkpoint(out / "initial.ckpt")
        got = tensorio.read_checkpoint(out / "best.ckpt")
        assert sorted(got) == sorted(base)
        for name, arr in got.items():
            assert np.array_equal(arr, want.get(name, base[name])), name
        named, meta = tensorio.read_adapter_checkpoint(out / "best_adapters.ckpt")
        final, final_meta = tensorio.read_adapter_checkpoint(out / "adapters.ckpt")
        assert meta == final_meta
        assert sorted(named) == sorted(final) == sorted(n for n in want if ".lora_" in n)
        for name, arr in named.items():
            assert np.array_equal(arr, want[name]), name
        assert not all(np.array_equal(named[n], final[n]) for n in named)
        # merged, the two files rebuild the adapted weights of that step
        merged = tmp_path / "merged.ckpt"
        code, _, _ = run(capsys, "merge", "--checkpoint", str(out / "best.ckpt"),
                         "--adapters", str(out / "best_adapters.ckpt"), "--out", str(merged))
        assert code == 0
        rebuilt = tensorio.read_checkpoint(merged)
        adapters = adapters_from_tensors({n: want[n] for n in named}, 4, meta["alpha"])
        for target, adapter in adapters.items():
            w = f"{target}.weight"
            assert np.array_equal(rebuilt[w], merge(base[w], adapter)), w

    def test_metrics_streamed_before_numeric_failure(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", base_lr=1e300, warmup_epochs=0,
                               batch_size=1)
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 2 and "at step 1" in err, err
        # the message names the op, found by walking the step's tape
        assert re.search(r"first produced by (linear|attention|layernorm|block"
                         r"|gelu|add|mul|cosine_rows|bce_with_logits)\b", err), err
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        m = json.loads(lines[0])
        assert list(m) == ["step", "lr", "loss", "l_iv", "l_vv"]
        assert m["step"] == 0 and np.isfinite(m["loss"])

    def test_numeric_failure_prints_no_numpy_warning(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", base_lr=1e300, warmup_epochs=0,
                               batch_size=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                               "--out", str(tmp_path / "run"))
        assert code == 2 and "numeric failure:" in err, err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_update_exit_2_writes_no_checkpoint(self, tmp_path, capsys):
        # finite loss and gradients; the decay term overflows in the last update
        cfgfile = write_config(tmp_path / "c.cfg", weight_decay=1e308, base_lr=100,
                               epochs=1, warmup_epochs=0, n_pairs=4, batch_size=4)
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 2 and "numeric failure:" in err, err
        assert re.search(r"at step 0 .*non-finite update of \S+\.weight", err), err
        for name in ("final.ckpt", "best.ckpt"):
            assert not (tmp_path / "run" / name).exists(), name

    def test_model_too_large_for_memory_exit_1(self, tmp_path, capsys, monkeypatch):
        # stands in for numpy failing to allocate the weights: nothing is allocated
        def no_memory(cfg):
            raise MemoryError(f"Unable to allocate weights of width {cfg.dim}")

        monkeypatch.setattr(training, "init_params", no_memory)
        cfgfile = write_config(tmp_path / "c.cfg", dim=4_000_000_000, heads=1)
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.splitlines() == [
            "error: out of memory: Unable to allocate weights of width 4000000000"]

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfgfile = write_config(tmp_path / "c.cfg", seed=3)
        monkeypatch.setenv("UNIV_SEED", "11")
        code, stdout, _ = run(capsys, "pretrain", "--config", str(cfgfile),
                              "--out", str(tmp_path / "run"))
        assert code == 0
        assert "config: seed=11" in stdout


class TestDefaults:
    def test_empty_config_builds_the_class_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("UNIV_SEED", raising=False)
        (tmp_path / "empty.cfg").write_text("")
        (tmp_path / "lora.cfg").write_text("lora_enabled=true\n")
        assert build_configs(parse_config(tmp_path / "empty.cfg")) == \
            (EncoderConfig(seed=7), training.TrainConfig())
        _, cfg = build_configs(parse_config(tmp_path / "lora.cfg"))
        assert cfg == training.TrainConfig(lora=LoraConfig())

    def test_blank_and_comment_lines_skipped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("UNIV_SEED", raising=False)
        (tmp_path / "plain.cfg").write_text("epochs=3\ntau=0.1\n")
        (tmp_path / "noted.cfg").write_text(
            "# a short run\n\nepochs=3\n   \n  # indented\ntau=0.1  # sharper\n\n")
        values = parse_config(tmp_path / "noted.cfg")
        assert values == parse_config(tmp_path / "plain.cfg")
        assert (values["epochs"], values["tau"]) == (3, 0.1)

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the same value twice still repeats: a config sets each key once
        (tmp_path / "c.cfg").write_text("epochs=3\n# again\nepochs=3\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: config key 'epochs' repeats line 1$"):
            parse_config(tmp_path / "c.cfg")


README_RECIPES = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    ).split("\n## Recipes\n", 1)[1].split("\n## ", 1)[0]


class TestReadmeRecipes:
    """Each config that README's "Recipes" writes parses, and the command it
    feeds exists with the options it is given.  Nothing is trained."""

    RECIPES = re.findall(r"cat > (\S+) <<'CFG'\n(.*?)\nCFG\n(.*?)```", README_RECIPES, re.S)

    def test_every_config_block_is_found(self):
        assert self.RECIPES and len(self.RECIPES) == README_RECIPES.count("cat > ")

    @pytest.mark.parametrize("name, body, rest", RECIPES, ids=[r[0] for r in RECIPES])
    def test_config_parses_and_its_command_exists(self, tmp_path, monkeypatch, name, body,
                                                 rest):
        monkeypatch.delenv("UNIV_SEED", raising=False)
        command = next(line for line in rest.replace("\\\n", " ").splitlines()
                       if line.startswith("irvis ") and f"--config {name}" in line)
        args = build_parser().parse_args(shlex.split(command)[1:])
        assert args.config == name
        (tmp_path / name).write_text(body + "\n")
        build_configs(parse_config(tmp_path / name))


class TestConfigRanges:
    @pytest.mark.parametrize("overrides", [
        dict(tau=0), dict(gamma=1.5), dict(alpha=-1),
        dict(lora_enabled="true", lora_dropout=1.0),
        dict(lora_enabled="true", lora_dropout=-0.1),
        dict(lora_enabled="true", lora_rank=0),
        dict(n_pairs=0), dict(epochs=-1, warmup_epochs=-1),
        dict(patch_size=0), dict(patch_size=-4), dict(image_size=0),
        dict(image_size=-4), dict(dim=0), dict(mlp_ratio=0),
        dict(mlp_ratio=-1),
        dict(lora_enabled="true", lora_alpha="nan"),
        dict(lora_enabled="true", lora_alpha="inf"),
        dict(base_lr="inf"), dict(tau="inf"), dict(weight_decay=-1),
        dict(alpha="inf"), dict(beta="inf"),
        dict(weight_decay="nan"), dict(beta2=2.0), dict(beta1="nan"),
        dict(night_fraction="nan"), dict(night_fraction="inf"),
        dict(night_fraction=-0.1), dict(night_fraction=1.5),
        dict(seed=-1), dict(model_seed=-1),
        dict(lora_enabled="treu"), dict(lora_enabled="on"), dict(lora_enabled=""),
        # vectors, not matrices, and no target at all
        dict(lora_enabled="true", lora_targets="norm1"),
        dict(lora_enabled="true", lora_targets="norm2"),
        dict(lora_enabled="true", lora_targets="norm"),
        dict(lora_enabled="true", lora_targets=","),
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_out_of_range_exit_1(self, tmp_path, capsys, overrides):
        cfgfile = write_config(tmp_path / "c.cfg", **overrides)
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_repeated_key_exit_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("seed=1\nseed=2\n")
        code, out, err = run(capsys, "pretrain", "--config", str(cfgfile),
                             "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err == f"error: {cfgfile}:2: config key 'seed' repeats line 1\n", err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["ablate", "forget"])
    def test_vector_lora_target_exit_1(self, tmp_path, capsys, command):
        cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0, n_pairs=4,
                               n_probe=8, lora_enabled="true", lora_targets="norm1")
        code, _, err = run(capsys, command, "--config", str(cfgfile))
        assert code == 1 and err.count("\n") == 1, err
        assert err.startswith("error: LoRA target 'blocks.0.norm1' is not a matrix"), err

    @pytest.mark.parametrize("command", ["ablate", "forget"])
    @pytest.mark.parametrize("n_probe", [3, 2, 1, 0, -1])
    def test_too_few_probes_exit_1_before_any_training(self, tmp_path, capsys, monkeypatch,
                                                       command, n_probe):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a row")

        monkeypatch.setattr("irvis.training.run_training", no_training)
        cfgfile = write_config(tmp_path / "c.cfg", n_probe=n_probe)
        code, _, err = run(capsys, command, "--config", str(cfgfile))
        assert code == 1 and err.count("\n") == 1, err
        assert err.startswith("error: a probe set needs at least 2 scenes"), err

    @pytest.mark.parametrize("command", ["ablate", "forget"])
    def test_four_probes_run(self, tmp_path, capsys, command):
        # the fewest scenes whose even and odd halves each hold two classes
        cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0, n_pairs=4,
                               n_probe=4)
        code, _, err = run(capsys, command, "--config", str(cfgfile))
        assert code == 0 and err == "", err

    @pytest.mark.parametrize("raw, enabled", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False),
        ("NO", False)])
    def test_lora_enabled_spellings(self, tmp_path, capsys, raw, enabled):
        values = parse_config(write_config(tmp_path / "c.cfg", lora_enabled=raw))
        assert values["lora_enabled"] is enabled

    def test_empty_manifest_exit_1(self, tmp_path, capsys):
        (tmp_path / "manifest.tsv").write_text("")
        cfgfile = write_config(tmp_path / "c.cfg",
                               manifest=tmp_path / "manifest.tsv")
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert "no training samples" in err

    def test_bad_env_seed_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UNIV_SEED", "eleven")
        code, _, err = run(capsys, "pretrain", "--config",
                           str(write_config(tmp_path / "c.cfg")),
                           "--out", str(tmp_path / "run"))
        assert code == 1
        assert "UNIV_SEED" in err


SWEEP_CONFIG = dict(image_size=8, depth=1, dim=8, heads=2, n_pairs=2, n_probe=4,
                    grid_seeds=1, epochs=1)
SWEEP_TOKENS = ("", "nan", "inf", "-1", "0", "1", "2", "1e309", "abc", "true")


@pytest.mark.parametrize("command", ["pretrain", "ablate", "forget", "dump-matrices"])
def test_exit_contract_over_every_config_key(tmp_path, capsys, monkeypatch, command):
    """Each schema key, one at a time, set to each token of a fixed pool on a
    tiny valid config: the command exits 0, 1 or 2 without raising, a failure
    prints one stderr line and a success none, and an exit 1 leaves no
    ``--out``."""
    monkeypatch.chdir(tmp_path)  # a relative manifest token names no file
    monkeypatch.delenv("UNIV_SEED", raising=False)
    (tmp_path / "empty.tsv").write_text("")
    (tmp_path / "a_dir").mkdir()
    cases = [(key, token) for key in _SCHEMA for token in SWEEP_TOKENS]
    cases += [("manifest", tmp_path / name) for name in ("missing.tsv", "a_dir", "empty.tsv")]
    violations = []
    for i, (key, token) in enumerate(cases):
        cfgfile = write_config(tmp_path / "c.cfg", **{**SWEEP_CONFIG, key: token})
        out = tmp_path / f"out{i}"
        argv = [command, "--config", str(cfgfile)]
        if command in ("pretrain", "dump-matrices"):
            argv += ["--out", str(out)]
        code, _, err = run(capsys, *argv)
        if code not in (0, 1, 2):
            violations.append((key, token, f"exit {code}"))
        elif err.count("\n") != (code != 0):
            violations.append((key, token, f"exit {code}, stderr {err!r}"))
        elif code == 1 and out.exists():
            violations.append((key, token, "exit 1 left --out"))
    assert violations == []


class TestMissingAndDegenerateInputs:
    def assert_exit_1(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: "), err
        assert "Traceback" not in out + err
        return err

    def test_any_value_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise ValueError("a check that names no error type")

        monkeypatch.setattr("irvis.cli.cmd_gen_data", broken)
        err = self.assert_exit_1(capsys, "gen-data", "--out", str(tmp_path), "--pairs", "1")
        assert err == "error: a check that names no error type\n"

    @pytest.mark.parametrize("command", ["pretrain", "dump-matrices"])
    def test_manifest_scene_of_another_size(self, tmp_path, capsys, command):
        code, _, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--pairs", "3")
        assert code == 0
        big = gen_scene(SceneSpec(height=20, width=20), seed=0)
        write_ppm(tmp_path / "d" / "big.ppm", big.visible)
        write_pgm(tmp_path / "d" / "big.pgm", big.infrared)
        with open(tmp_path / "d" / "manifest.tsv", "a") as f:
            f.write("big\tbig.ppm\tbig.pgm\tseq0\n")
        cfgfile = write_config(tmp_path / "c.cfg", manifest=tmp_path / "d" / "manifest.tsv")
        err = self.assert_exit_1(capsys, command, "--config", str(cfgfile),
                                 "--out", str(tmp_path / "out"))
        assert err == "error: big: a 20x20 image, but image_size is 16\n"

    def test_missing_checkpoint(self, tmp_path, capsys):
        err = self.assert_exit_1(capsys, "merge", "--checkpoint",
                                 str(tmp_path / "nope.ckpt"), "--adapters",
                                 str(tmp_path / "nope.adapters"), "--out",
                                 str(tmp_path / "m.ckpt"))
        assert "nope.ckpt" in err

    def test_missing_manifest(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", manifest=tmp_path / "nope.tsv")
        err = self.assert_exit_1(capsys, "pretrain", "--config", str(cfgfile),
                                 "--out", str(tmp_path / "run"))
        assert "nope.tsv" in err

    @pytest.mark.parametrize("case", ["missing_manifest", "rank_too_large", "empty_manifest"])
    def test_failed_pretrain_makes_no_out(self, tmp_path, capsys, case):
        # every input is read and checked before --out is made
        (tmp_path / "empty.tsv").write_text("")
        overrides, message = {
            "missing_manifest": (dict(manifest=tmp_path / "nope.tsv"),
                                 f"[Errno 2] No such file or directory: "
                                 f"'{tmp_path / 'nope.tsv'}'"),
            "rank_too_large": (dict(lora_enabled="true", lora_rank=64),
                               "rank 64 exceeds min dim of blocks.0.fc1 (32)"),
            "empty_manifest": (dict(manifest=tmp_path / "empty.tsv"), "no training samples"),
        }[case]
        err = self.assert_exit_1(capsys, "pretrain", "--config",
                                 str(write_config(tmp_path / "c.cfg", **overrides)),
                                 "--out", str(tmp_path / "run"))
        assert err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source", ["empty_manifest", "no_pairs"])
    def test_dump_matrices_refuses_no_samples_before_out(self, tmp_path, capsys, source):
        # the message pretrain and ablate give, and no empty --out
        (tmp_path / "empty.tsv").write_text("")
        overrides = (dict(manifest=tmp_path / "empty.tsv") if source == "empty_manifest"
                     else dict(n_pairs=0))
        err = self.assert_exit_1(capsys, "dump-matrices", "--config",
                                 str(write_config(tmp_path / "c.cfg", **overrides)),
                                 "--out", str(tmp_path / "mats"))
        assert err == "error: no training samples\n"
        assert not (tmp_path / "mats").exists()

    @pytest.mark.parametrize("source", ["generated", "manifest"])
    @pytest.mark.parametrize("command", ["pretrain", "dump-matrices"])
    def test_channels_that_cannot_take_the_images_make_no_out(self, tmp_path, capsys,
                                                              command, source):
        # the visible images have 3 channels and the infrared ones 1: only a
        # channels of 1 or 3 takes both, and any other is refused before --out
        overrides = dict(channels=2, n_pairs=2)
        if source == "manifest":
            assert main(["gen-data", "--out", str(tmp_path / "d"), "--pairs", "2"]) == 0
            capsys.readouterr()
            overrides["manifest"] = tmp_path / "d" / "manifest.tsv"
        err = self.assert_exit_1(capsys, command, "--config",
                                 str(write_config(tmp_path / "c.cfg", **overrides)),
                                 "--out", str(tmp_path / "out"))
        assert err == ("error: channels must be 1 or 3 to take 3-channel visible and "
                       "1-channel infrared images, got 2\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ablate", "forget"])
    def test_channels_refused_by_the_commands_with_no_out(self, tmp_path, capsys, command):
        # forget builds its own pairs, so the config is where the check can run
        err = self.assert_exit_1(capsys, command, "--config",
                                 str(write_config(tmp_path / "c.cfg", channels=2)))
        assert err == ("error: channels must be 1 or 3 to take 3-channel visible and "
                       "1-channel infrared images, got 2\n")

    @pytest.mark.parametrize("model", ["missing_key", "other_dim"])
    def test_checkpoint_of_another_model(self, tmp_path, capsys, model):
        cfg = EncoderConfig(seed=7, dim=16 if model == "other_dim" else 32)
        ckpt = {k: t.data for k, t in init_params(cfg).items()}
        if model == "missing_key":
            del ckpt["norm.bias"]
        tensorio.write_checkpoint(tmp_path / "m.ckpt", ckpt)
        err = self.assert_exit_1(capsys, "dump-matrices", "--config",
                                 str(write_config(tmp_path / "c.cfg", n_pairs=2)),
                                 "--out", str(tmp_path / "mats"),
                                 "--checkpoint", str(tmp_path / "m.ckpt"))
        assert "do not match the configured model" in err

    def test_zero_norm_features(self, tmp_path, capsys):
        ckpt = {k: t.data for k, t in init_params(EncoderConfig(seed=7)).items()}
        ckpt["norm.weight"] = np.zeros_like(ckpt["norm.weight"])
        ckpt["norm.bias"] = np.zeros_like(ckpt["norm.bias"])
        tensorio.write_checkpoint(tmp_path / "zero.ckpt", ckpt)
        err = self.assert_exit_1(capsys, "dump-matrices", "--config",
                                 str(write_config(tmp_path / "c.cfg", n_pairs=2)),
                                 "--out", str(tmp_path / "mats"),
                                 "--checkpoint", str(tmp_path / "zero.ckpt"))
        assert "zero-norm row" in err


class TestSmallImages:
    """Without a manifest, scenes are rendered in process: pairs need images of
    at least 6 pixels a side, probes at least 8."""

    @staticmethod
    def argv(tmp_path, command, size):
        cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0, n_pairs=4,
                               n_probe=8, image_size=size, patch_size=size)
        out = ["--out", str(tmp_path / "out")] if command in ("pretrain",
                                                              "dump-matrices") else []
        return [command, "--config", str(cfgfile), *out]

    @pytest.mark.parametrize("command, size, minimum", [
        ("pretrain", 4, 6), ("dump-matrices", 4, 6),
        ("forget", 4, 8), ("forget", 6, 8), ("forget", 7, 8),
        ("ablate", 4, 6), ("ablate", 6, 8), ("ablate", 7, 8)])
    def test_too_small_exit_1_in_one_line(self, tmp_path, capsys, command, size, minimum):
        code, out, err = run(capsys, *self.argv(tmp_path, command, size))
        assert code == 1 and "Traceback" not in out + err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{size}x{size} image" in err and f"at least {minimum}" in err, err

    @pytest.mark.parametrize("command, size", [
        ("pretrain", 6), ("pretrain", 7), ("dump-matrices", 6), ("dump-matrices", 7),
        ("forget", 8), ("ablate", 8)])
    def test_smallest_sizes_run(self, tmp_path, capsys, command, size):
        code, _, err = run(capsys, *self.argv(tmp_path, command, size))
        assert code == 0, err


class TestAblate:
    def test_three_row_table(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0,
                               n_pairs=4, n_probe=8)
        code, stdout, _ = run(capsys, "ablate", "--config", str(cfgfile))
        assert code == 0
        for label in ("L_MSE", "L_NCE", "L_PCCL"):
            assert label in stdout
        body = [l for l in stdout.splitlines() if l.startswith("L_")]
        assert len(body) == 3
        for line in body:
            _, final, vp, ip = line.split()
            assert np.isfinite(float(final))
            assert 0.0 <= float(vp) <= 1.0 and 0.0 <= float(ip) <= 1.0

    def test_equals_a_hand_rolled_loop(self, tmp_path, capsys):
        # seed 3: the pairs' seed differs from the probes' (1003), and each row
        # draws its own LoRA dropout masks
        cfgfile = write_config(tmp_path / "c.cfg", seed=3, lora_enabled="true",
                               lora_dropout=0.1)
        code, stdout, _ = run(capsys, "ablate", "--config", str(cfgfile))
        assert code == 0
        enc = EncoderConfig(seed=7)
        size = dict(height=enc.image_size, width=enc.image_size)
        pairs = make_pretrain_pairs(6, seed=3, **size)
        probes, labels = make_labeled_scenes(8, seed=1003, **size)
        teacher = training.frozen_teacher(enc)
        table = [f"{'loss':<8} {'final':>12} {'visible_probe':>14} {'infrared_probe':>15}"]
        for label, kind in (("L_MSE", "mse"), ("L_NCE", "nce"), ("L_PCCL", "pccl")):
            cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=0.001, batch_size=4,
                              lora=LoraConfig(dropout=0.1), loss_kind=kind, seed=3)
            state = training.student_state(teacher, cfg.lora, seed=cfg.seed)
            training.run_training(pairs, teacher, state, enc, cfg)
            ir, vis = (training.linear_probe(features, labels) for features in
                       training.pooled_features(probes, state.params, enc, state.adapters))
            table.append(f"{label:<8} {state.log[-1]['loss']:>12.6f} {vis:>14.4f} {ir:>15.4f}")
        assert [l for l in stdout.splitlines() if not l.startswith("config: ")] == table

    def test_epochs_zero_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("built a scene or a teacher")

        for name in ("frozen_teacher", "make_pretrain_pairs", "make_labeled_scenes"):
            monkeypatch.setattr(f"irvis.cli.{name}", no_work)
        cfgfile = write_config(tmp_path / "c.cfg", epochs=0, warmup_epochs=0,
                               n_pairs=4, n_probe=4)
        code, _, err = run(capsys, "ablate", "--config", str(cfgfile))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "epochs" in err


class TestForget:
    def test_smoke_five_rows(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0,
                               n_pairs=4, n_probe=8, grid_seeds=1,
                               lora_dropout=0.0)
        code, stdout, _ = run(capsys, "forget", "--config", str(cfgfile))
        assert code == 0
        rows = [l for l in stdout.splitlines() if l.startswith("(")]
        assert [r[:3] for r in rows] == ["(a)", "(b)", "(c)", "(d)", "(e)"]

    def test_only_trained_rows_use_a_loss(self, tmp_path, capsys):
        # row (a), the frozen baseline, trains nothing: no L_IV either
        cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0,
                               n_pairs=4, n_probe=8, grid_seeds=1)
        code, stdout, _ = run(capsys, "forget", "--config", str(cfgfile))
        assert code == 0
        flags = {line[1]: line.split()[1:4] for line in stdout.splitlines()
                 if line.startswith("(")}
        assert flags == {"a": ["no", "no", "no"], "b": ["yes", "no", "no"],
                         "c": ["yes", "yes", "no"], "d": ["yes", "no", "yes"],
                         "e": ["yes", "yes", "yes"]}

    def test_epochs_zero_exit_0(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", epochs=0, warmup_epochs=0,
                               n_pairs=4, n_probe=8, grid_seeds=1)
        code, stdout, _ = run(capsys, "forget", "--config", str(cfgfile))
        assert code == 0
        assert len([l for l in stdout.splitlines() if l.startswith("(")]) == 5

    def test_adapters_follow_lora_targets_without_lora_enabled(self, tmp_path, capsys):
        trainable = []
        for extra in ({}, {"lora_enabled": "true"}):
            cfgfile = write_config(tmp_path / "c.cfg", epochs=1, warmup_epochs=0,
                                   n_pairs=4, n_probe=8, grid_seeds=1,
                                   lora_targets="qkv", **extra)
            code, stdout, _ = run(capsys, "forget", "--config", str(cfgfile))
            assert code == 0
            row_d = next(l for l in stdout.splitlines() if l.startswith("(d)"))
            trainable.append(int(row_d.split()[4]))
        # rank-8 qkv adapters in both blocks, plus the position embedding
        assert trainable == [2 * (8 * 32 + 8 * 96) + 16 * 32] * 2

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_no_grid_seeds_exit_1(self, tmp_path, capsys, seeds):
        cfgfile = write_config(tmp_path / "c.cfg", grid_seeds=seeds)
        code, _, err = run(capsys, "forget", "--config", str(cfgfile))
        assert code == 1 and "seed" in err, err


class TestMerge:
    def _pretrained(self, tmp_path, capsys, **cfg):
        cfgfile = write_config(tmp_path / "c.cfg", lora_enabled="true",
                               lora_rank=4, lora_dropout=0.0, **cfg)
        out = tmp_path / "run"
        code, _, _ = run(capsys, "pretrain", "--config", str(cfgfile),
                         "--out", str(out))
        assert code == 0
        return out

    def test_zero_adapters_byte_identical(self, tmp_path, capsys):
        out = self._pretrained(tmp_path, capsys, epochs=1, warmup_epochs=1,
                               weight_decay=0.0, n_pairs=4)
        # warmup spans the whole schedule, so adapters stay at their zero init
        merged = tmp_path / "merged.ckpt"
        code, stdout, _ = run(capsys, "merge", "--checkpoint",
                              str(out / "final.ckpt"), "--adapters",
                              str(out / "adapters.ckpt"), "--out", str(merged))
        assert code == 0
        assert merged.read_bytes() == (out / "final.ckpt").read_bytes()

    def test_trained_adapters_verified(self, tmp_path, capsys):
        out = self._pretrained(tmp_path, capsys, base_lr=0.01)
        merged = tmp_path / "merged.ckpt"
        code, stdout, _ = run(capsys, "merge", "--checkpoint",
                              str(out / "final.ckpt"), "--adapters",
                              str(out / "adapters.ckpt"), "--out", str(merged))
        assert code == 0
        worst = float(stdout.strip().rsplit(" ", 1)[-1])
        assert worst < 1e-10
        assert merged.read_bytes() != (out / "final.ckpt").read_bytes()

    def test_merges_at_the_configured_alpha_exactly(self, tmp_path, capsys):
        out = self._pretrained(tmp_path, capsys, base_lr=0.01, lora_alpha=32.123456789)
        merged = tmp_path / "merged.ckpt"
        code, _, _ = run(capsys, "merge", "--checkpoint", str(out / "final.ckpt"),
                         "--adapters", str(out / "adapters.ckpt"), "--out", str(merged))
        assert code == 0
        params = tensorio.read_checkpoint(out / "final.ckpt")
        named, _ = tensorio.read_adapter_checkpoint(out / "adapters.ckpt")
        want = dict(params)
        for target, adapter in adapters_from_tensors(named, 4, 32.123456789).items():
            want[f"{target}.weight"] = merge(params[f"{target}.weight"], adapter)
        assert merged.read_bytes() == tensorio.checkpoint_bytes(want)

    def test_overflowing_forward_exit_2(self, tmp_path, capsys):
        # finite weights whose products overflow: the two-path and merged
        # forward passes are inf, and their difference NaN
        out = self._pretrained(tmp_path, capsys)
        ckpt = tensorio.read_checkpoint(out / "final.ckpt")
        ckpt["blocks.0.fc1.weight"] = np.full_like(ckpt["blocks.0.fc1.weight"], 1e307)
        tensorio.write_checkpoint(tmp_path / "big.ckpt", ckpt)
        code, _, err = run(capsys, "merge", "--checkpoint", str(tmp_path / "big.ckpt"),
                           "--adapters", str(out / "adapters.ckpt"),
                           "--out", str(tmp_path / "m.ckpt"))
        assert code == 2 and "numeric failure:" in err, err

    def test_write_error_names_the_out_path(self, tmp_path, capsys):
        out = self._pretrained(tmp_path, capsys, epochs=1, n_pairs=4)
        target = tmp_path / "missing" / "m.ckpt"
        code, _, err = run(capsys, "merge", "--checkpoint", str(out / "final.ckpt"),
                           "--adapters", str(out / "adapters.ckpt"), "--out", str(target))
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_mismatched_target_exit_1(self, tmp_path, capsys):
        out = self._pretrained(tmp_path, capsys)
        ckpt = tensorio.read_checkpoint(out / "final.ckpt")
        broken = {k.replace("qkv", "qqq"): v for k, v in ckpt.items()}
        tensorio.write_checkpoint(tmp_path / "broken.ckpt", broken)
        code, _, err = run(capsys, "merge", "--checkpoint",
                           str(tmp_path / "broken.ckpt"), "--adapters",
                           str(out / "adapters.ckpt"), "--out",
                           str(tmp_path / "m.ckpt"))
        assert code == 1
        assert "qkv" in err


class TestDumpMatrices:
    def test_writes_three_matrices_per_scene(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", n_pairs=3)
        out = tmp_path / "mats"
        code, _, _ = run(capsys, "dump-matrices", "--config", str(cfgfile),
                         "--out", str(out))
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 9
        m_iv = tensorio.read_tensor(out / "pair-00000.m_iv.tnsr")
        m_p = tensorio.read_tensor(out / "pair-00000.m_p.tnsr")
        assert m_iv.shape == (16, 16) and m_p.shape == (16, 16)
        assert set(np.unique(m_p)) <= {0.0, 1.0}
        assert np.all(np.diag(m_p) == 1.0)

    @pytest.mark.parametrize("scene_id", ["", ".", "..", "../../escaped", "a\0b"],
                             ids=["empty", "dot", "dotdot", "slash", "nul"])
    def test_scene_id_not_a_file_name_exit_1(self, tmp_path, capsys, scene_id):
        box = tmp_path / "box"
        code, _, _ = run(capsys, "gen-data", "--out", str(box / "data"), "--pairs", "2")
        assert code == 0
        manifest = box / "data" / "manifest.tsv"
        first, second = manifest.read_text().splitlines()
        manifest.write_text(first + "\n" + scene_id + second[second.index("\t"):] + "\n")
        cfgfile = write_config(box / "c.cfg", manifest=manifest)
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, "dump-matrices", "--config", str(cfgfile),
                             "--out", str(box / "out"))
        assert code == 1 and "Traceback" not in out + err
        assert f"{manifest}:2: " in err, err
        assert [p for p in sorted(tmp_path.rglob("*")) if p != box / "out"] == before

    def test_repeated_scene_id_exit_1(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-data", "--out", str(tmp_path / "data"), "--pairs", "3")
        assert code == 0
        manifest = tmp_path / "data" / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        lines[2] = "scene-00000" + lines[2][lines[2].index("\t"):]
        manifest.write_text("".join(line + "\n" for line in lines))
        cfgfile = write_config(tmp_path / "c.cfg", manifest=manifest)
        code, out, err = run(capsys, "dump-matrices", "--config", str(cfgfile),
                             "--out", str(tmp_path / "out"))
        assert code == 1 and "Traceback" not in out + err
        assert err == f"error: {manifest}:3: scene id 'scene-00000' repeats line 1\n", err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_overflowing_similarity_exit_2(self, tmp_path, capsys):
        # a positive, finite tau whose inverse overflows
        cfgfile = write_config(tmp_path / "c.cfg", n_pairs=2, tau=1e-310)
        code, _, err = run(capsys, "dump-matrices", "--config", str(cfgfile),
                           "--out", str(tmp_path / "mats"))
        assert code == 2 and "numeric failure:" in err, err


@pytest.fixture(scope="module")
def lora_run(tmp_path_factory):
    """Checkpoint and adapter files of a short LoRA run with moved adapters."""
    d = tmp_path_factory.mktemp("lora_run")
    cfgfile = write_config(d / "c.cfg", epochs=1, warmup_epochs=0, n_pairs=4,
                           base_lr=0.01, lora_enabled="true", lora_rank=4,
                           lora_dropout=0.0)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pretrain", "--config", str(cfgfile),
                     "--out", str(d / "run")]) == 0
    return d


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    """A directory to train from, and the bytes of the two real pairs and the
    manifest that ``gen-data`` writes there."""
    d = tmp_path_factory.mktemp("pairs")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(d), "--pairs", "2"]) == 0
    files = {p.name: p.read_bytes() for p in d.iterdir()}
    write_config(d / "c.cfg", epochs=1, warmup_epochs=0, batch_size=2,
                 manifest=d / "manifest.tsv")
    return d, files


SMALL_CONFIG = (b"n_pairs=4\nepochs=1\nwarmup_epochs=0\nbatch_size=4\nbase_lr=0.01\n"
                b"tau=0.04\ngamma=0.6\nloss_kind=pccl\nlora_enabled=true\nlora_rank=4\n"
                b"lora_dropout=0.1\nlora_targets=qkv,fc1\nnight_fraction=0.5\nseed=0\n")


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@pytest.fixture(scope="module")
def contract_pairs(tmp_path_factory):
    """A directory with two ``gen-data`` pairs, the bytes of its files, and a
    tiny LoRA config with dropout that trains from its manifest."""
    d = tmp_path_factory.mktemp("contract")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(d), "--pairs", "2"]) == 0
    files = {p.name: p.read_bytes() for p in d.iterdir()}
    write_config(d / "c.cfg", depth=1, dim=8, heads=2, epochs=1, warmup_epochs=0,
                 batch_size=2, lora_enabled="true", lora_rank=2, lora_dropout=0.1,
                 manifest=d / "manifest.tsv")
    return d, files


def merge_quietly(d, checkpoint, adapters):
    """Exit code and stderr of ``irvis merge`` run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["merge", "--checkpoint", str(checkpoint), "--adapters",
                     str(adapters), "--out", str(d / "merged.ckpt")])
    return code, err.getvalue()


class TestMalformedFiles:
    def _merge(self, lora_run, name, raw):
        bad = lora_run / f"bad-{name}"
        bad.write_bytes(raw)
        files = {"final.ckpt": lora_run / "run" / "final.ckpt",
                 "adapters.ckpt": lora_run / "run" / "adapters.ckpt", name: bad}
        return merge_quietly(lora_run, files["final.ckpt"], files["adapters.ckpt"])

    @pytest.mark.parametrize("name,size", [("final.ckpt", 300), ("final.ckpt", 12),
                                           ("adapters.ckpt", 40)])
    def test_truncated_exit_1(self, lora_run, name, size):
        raw = (lora_run / "run" / name).read_bytes()[:size]
        code, err = self._merge(lora_run, name, raw)
        assert code == 1 and "truncated" in err, err

    @pytest.mark.parametrize("header", [b"rank\nalpha=32\ndropout=0", b"rank=four",
                                        b"rank=0\nalpha=32\ndropout=0",
                                        b"alpha=32\ndropout=0"])
    def test_bad_adapter_header_exit_1(self, lora_run, header):
        raw = (lora_run / "run" / "adapters.ckpt").read_bytes()
        code, err = self._merge(lora_run, "adapters.ckpt",
                                header + raw[raw.index(b"\n\n"):])
        assert code == 1 and "adapter" in err, err

    def test_adapters_of_another_model_exit_1(self, lora_run, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg", dim=16, epochs=1, warmup_epochs=0,
                               n_pairs=4, lora_enabled="true", lora_rank=4)
        run(capsys, "pretrain", "--config", str(cfgfile), "--out", str(tmp_path / "run"))
        code, err = merge_quietly(tmp_path, lora_run / "run" / "final.ckpt",
                                  tmp_path / "run" / "adapters.ckpt")
        assert code == 1 and "shape mismatch" in err, err

    def test_trailing_bytes_exit_1(self, lora_run):
        raw = (lora_run / "run" / "final.ckpt").read_bytes() + b"\0"
        code, err = self._merge(lora_run, "final.ckpt", raw)
        assert code == 1 and "trailing" in err, err

    def test_non_numeric_pnm_header_exit_1(self, tmp_path, capsys):
        run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--pairs", "2")
        (tmp_path / "d" / "scene-00000.ppm").write_bytes(b"P6\nxx 4\n255\n")
        cfgfile = write_config(tmp_path / "c.cfg",
                               manifest=tmp_path / "d" / "manifest.tsv")
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1 and "non-numeric" in err, err

    @pytest.mark.parametrize("size", [b"1000000 1000000", b"99999999999 99999999999"])
    def test_pnm_size_beyond_file_exit_1(self, tmp_path, capsys, size):
        run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--pairs", "2")
        (tmp_path / "d" / "scene-00000.pgm").write_bytes(
            b"P5\n" + size + b"\n255\n" + bytes(256))
        cfgfile = write_config(tmp_path / "c.cfg",
                               manifest=tmp_path / "d" / "manifest.tsv")
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1 and "truncated pixel payload" in err, err

    def test_manifest_not_text_exit_1(self, tmp_path, capsys):
        run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--pairs", "2")
        manifest = tmp_path / "d" / "manifest.tsv"
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
        code, _, err = run(capsys, "pretrain", "--config",
                           str(write_config(tmp_path / "c.cfg", manifest=manifest)),
                           "--out", str(tmp_path / "run"))
        assert code == 1 and "manifest.tsv" in err, err

    def test_config_not_text_exit_1(self, tmp_path, capsys):
        cfgfile = write_config(tmp_path / "c.cfg")
        cfgfile.write_bytes(cfgfile.read_bytes() + b"\xff\n")
        code, _, err = run(capsys, "pretrain", "--config", str(cfgfile),
                           "--out", str(tmp_path / "run"))
        assert code == 1 and "c.cfg" in err, err

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["scene-00000.ppm", "scene-00000.pgm", "manifest.tsv"]),
           cut=st.booleans(), data=st.data())
    def test_pairs_truncated_or_flipped_never_traceback(self, pair_files, name, cut,
                                                         data):
        work, files = pair_files
        raw = bytearray(files[name])
        # half the positions fall in the PNM headers, which take 13 bytes
        pos = data.draw(st.one_of(st.integers(0, 13), st.integers(0, len(raw) - 1)))
        if cut:
            raw = raw[:pos]
        else:
            raw[pos] ^= 1 << data.draw(st.integers(0, 7))
        for other, content in files.items():
            (work / other).write_bytes(bytes(raw) if other == name else content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pretrain", "--config", str(work / "c.cfg"),
                         "--out", str(work / "run")])
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cut=st.booleans(), data=st.data())
    def test_config_truncated_or_flipped_never_traceback(self, config_dir, cut, data):
        raw = bytearray(SMALL_CONFIG)
        pos = data.draw(st.integers(0, len(raw) - 1))
        if cut:
            raw = raw[:pos]
        else:
            raw[pos] ^= 1 << data.draw(st.integers(0, 7))
        (config_dir / "c.cfg").write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pretrain", "--config", str(config_dir / "c.cfg"),
                         "--out", str(config_dir / "run")])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["final.ckpt", "adapters.ckpt"]),
           cut=st.booleans(), data=st.data())
    def test_truncated_or_flipped_never_tracebacks(self, lora_run, name, cut, data):
        raw = bytearray((lora_run / "run" / name).read_bytes())
        # half the positions fall in the headers, names and shapes up front
        pos = data.draw(st.one_of(st.integers(0, 300), st.integers(0, len(raw) - 1)))
        if cut:
            raw = raw[:pos]
        else:
            raw[pos] ^= 1 << data.draw(st.integers(0, 7))
        code, err = self._merge(lora_run, name, bytes(raw))
        assert code in (0, 1, 2)
        assert "Traceback" not in err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(["manifest.tsv", "scene-00000.ppm", "scene-00001.pgm"]),
       edit=st.sampled_from(["cut", "flip", "insert", "delete"]), data=st.data())
def test_exit_contract_over_mutated_pairs(contract_pairs, name, edit, data):
    """A manifest, PPM or PGM cut short, with a bit flipped, or with bytes put
    in or taken out: ``pretrain`` and ``dump-matrices`` exit 0, 1 or 2 without
    raising, a failure prints one stderr line and a success none, an exit 1
    leaves no ``--out``, and no thread outlives the command."""
    work, files = contract_pairs
    raw = bytearray(files[name])
    # half the positions fall in the PNM headers, which take 13 bytes
    pos = data.draw(st.one_of(st.integers(0, 13), st.integers(0, len(raw) - 1)))
    if edit == "cut":
        del raw[pos:]
    elif edit == "flip":
        raw[pos] ^= 1 << data.draw(st.integers(0, 7))
    elif edit == "insert":
        raw[pos:pos] = data.draw(st.binary(min_size=1, max_size=4))
    else:
        del raw[pos:pos + data.draw(st.integers(1, 4))]
    for other, content in files.items():
        (work / other).write_bytes(bytes(raw) if other == name else content)
    threads = threading.active_count()
    for command in ("pretrain", "dump-matrices"):
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(work / "c.cfg"), "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2), (command, err)
        assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0), \
            (command, err)
        assert not (code == 1 and out.exists()), (command, err)
        assert threading.active_count() == threads, command


class TestNonFiniteFiles:
    """No command writes a NaN or an infinity, so one read from a file is bad
    data: exit 1 with a one-line error naming the file and the tensor, before
    any output is written."""

    def _spoiled(self, lora_run, tmp_path, name, tensor, value):
        """A copy of the run's file ``name`` whose ``tensor`` holds ``value``
        in its first entry."""
        path = tmp_path / f"bad-{name}"
        if name == "adapters.ckpt":
            named, meta = tensorio.read_adapter_checkpoint(lora_run / "run" / name)
        else:
            named = tensorio.read_checkpoint(lora_run / "run" / name)
        named[tensor] = named[tensor].copy()
        named[tensor].flat[0] = value
        if name == "adapters.ckpt":
            tensorio.write_adapter_checkpoint(path, named, rank=int(meta["rank"]),
                                              alpha=meta["alpha"], dropout=meta["dropout"])
        else:
            tensorio.write_checkpoint(path, named)
        return path

    def _merge_exits_1(self, tmp_path, checkpoint, adapters, tensor, bad):
        code, err = merge_quietly(tmp_path, checkpoint, adapters)
        assert code == 1
        assert err == f"error: non-finite values in tensor {tensor!r} of {bad}\n", err
        assert not (tmp_path / "merged.ckpt").exists()

    def test_merge_nan_in_a_weight_no_adapter_touches_exit_1(self, lora_run, tmp_path):
        bad = self._spoiled(lora_run, tmp_path, "final.ckpt", "norm.weight", np.nan)
        self._merge_exits_1(tmp_path, bad, lora_run / "run" / "adapters.ckpt",
                            "norm.weight", bad)

    def test_merge_inf_in_an_adapted_weight_exit_1(self, lora_run, tmp_path):
        name = "blocks.0.qkv.weight"
        bad = self._spoiled(lora_run, tmp_path, "final.ckpt", name, np.inf)
        self._merge_exits_1(tmp_path, bad, lora_run / "run" / "adapters.ckpt", name, bad)

    def test_merge_nan_in_an_adapter_exit_1(self, lora_run, tmp_path):
        name = "blocks.0.qkv.lora_A"
        bad = self._spoiled(lora_run, tmp_path, "adapters.ckpt", name, np.nan)
        self._merge_exits_1(tmp_path, lora_run / "run" / "final.ckpt", bad, name, bad)

    def test_dump_matrices_nan_in_the_checkpoint_exit_1(self, lora_run, tmp_path, capsys):
        bad = self._spoiled(lora_run, tmp_path, "final.ckpt", "norm.weight", np.nan)
        cfgfile = write_config(tmp_path / "c.cfg", n_pairs=2)
        code, _, err = run(capsys, "dump-matrices", "--config", str(cfgfile),
                           "--out", str(tmp_path / "mats"), "--checkpoint", str(bad))
        assert code == 1
        assert err == f"error: non-finite values in tensor 'norm.weight' of {bad}\n", err
        assert not (tmp_path / "mats").exists()
