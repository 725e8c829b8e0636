"""The benchmark under ``perfbench/`` times the program by wrapping functions
where callers look them up.  These tests fail when a refactor moves or
renames one of those lookup sites, which would otherwise silently break the
benchmark's runs instead of this suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from irvis import pccl
from irvis.autodiff import Tensor
from irvis.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves():
    tracing = load_tracing()
    for owner, attr, _ in tracing.SPAN_SITES:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"


def test_train_step_wrapped_at_both_lookup_sites():
    for module in ("irvis.training", "irvis.cli"):
        assert callable(getattr(importlib.import_module(module), "train_step", None))


def test_loss_table_looks_up_helpers_at_call_time(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(pccl, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("similarity", "loss_iv", "loss_variant_softmax"):
        monkeypatch.setattr(pccl, name, counting(name))
    rng = np.random.default_rng(0)
    # both branches of a batch of one image against its teacher features
    f_s, f_t = Tensor(rng.normal(size=(2, 1, 4, 8))), rng.normal(size=(1, 4, 8))
    labels = pccl.pseudo_labels(np.full((1, 4, 4), 0.25), 0.6)
    expected = {"pccl": ["similarity", "loss_iv"],
                "pccl_softmax_variant": ["similarity", "loss_variant_softmax"],
                "nce": ["similarity"], "mse": []}
    assert sorted(pccl.LOSSES) == sorted(expected)
    for kind, names in expected.items():
        calls.clear()
        pccl.LOSSES[kind](f_s, f_t, labels, 0.04)
        assert calls == names, kind


def test_traced_pretrain_knows_its_teacher(tmp_path, capsys):
    """The tracer takes the dict that ``init_params`` returns for the teacher,
    by identity.  ``irvis pretrain`` must encode with that same dict, or the
    traced ``encoder.teacher_*`` metrics silently read zero."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("epochs=1\nwarmup_epochs=0\nn_pairs=4\nlora_enabled=true\n")
    with tracing.patched(tracer.patches()):
        assert main(["pretrain", "--config", str(cfgfile), "--out", str(tmp_path / "run")]) == 0
    encodes = [attrs for name, *_, attrs in tracer.take() if name == "encoder.encode"]
    teacher = [attrs for attrs in encodes if attrs["teacher"]]
    assert teacher, "no encode ran on the teacher"
    assert not any(attrs["taped"] for attrs in teacher)
    assert any(attrs["taped"] for attrs in encodes), "no student pass was traced"
