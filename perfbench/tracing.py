"""Spans and step timers recorded from outside the program.

Every layer is timed by wrapping its public functions where they are looked
up (``irvis.training.encode`` as well as ``irvis.cli.encode``), so the
program itself carries no instrumentation.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class StepRecorder:
    """Wall time, loss and adapter use of every ``train_step`` call."""

    def __init__(self):
        self.ms: list[float] = []
        self.losses: list[float] = []
        self.lora: list[bool] = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(state, *args, **kwargs):
            start = perf_counter()
            out = fn(state, *args, **kwargs)
            self.ms.append((perf_counter() - start) * 1e3)
            self.losses.append(out["loss"])
            self.lora.append(state.adapters is not None)
            return out
        return timed

    def patches(self):
        """Wrap ``train_step`` at both places the program looks it up."""
        modules = [importlib.import_module(m) for m in ("irvis.training", "irvis.cli")]
        return [(m, "train_step", self.wrap(m.train_step)) for m in modules]


# (owner, attribute, span name); owners given as module paths, or
# "module:Class" for methods.  Each function is wrapped at every place a
# caller looks it up.
SPAN_SITES = (
    ("irvis.autodiff:Tensor", "backward", "autodiff.backward"),
    ("irvis.encoder", "init_params", "encoder.init_params"),
    ("irvis.training", "init_params", "encoder.init_params"),
    ("irvis.cli", "init_params", "encoder.init_params"),
    ("irvis.encoder", "encode", "encoder.encode"),
    ("irvis.training", "encode", "encoder.encode"),
    ("irvis.cli", "encode", "encoder.encode"),
    ("irvis.lora:LoraAdapter", "delta", "lora.delta"),
    ("irvis.lora", "merge", "lora.merge"),
    ("irvis.cli", "merge", "lora.merge"),
    ("irvis.pccl", "pseudo_labels", "pccl.pseudo_labels"),
    ("irvis.cli", "pseudo_labels", "pccl.pseudo_labels"),
    ("irvis.pccl", "similarity", "pccl.similarity"),
    ("irvis.cli", "similarity", "pccl.similarity"),
    ("irvis.pccl", "loss_iv", "pccl.loss"),
    ("irvis.pccl", "loss_vv", "pccl.loss"),
    ("irvis.pccl", "loss_pccl", "pccl.loss"),
    ("irvis.pccl", "loss_variant_softmax", "pccl.loss"),
    ("irvis.training", "train_step", "training.train_step"),
    ("irvis.cli", "train_step", "training.train_step"),
    ("irvis.training", "pooled_features", "training.probe"),
    ("irvis.cli", "pooled_features", "training.probe"),
    ("irvis.training", "linear_probe", "training.probe"),
    ("irvis.cli", "linear_probe", "training.probe"),
    ("irvis.data", "gen_scene", "data.gen"),
    ("irvis.data", "read_ppm", "data.pnm_read"),
    ("irvis.data", "read_pgm", "data.pnm_read"),
    ("irvis.data", "write_ppm", "data.pnm_write"),
    ("irvis.data", "write_pgm", "data.pnm_write"),
    ("irvis.tensorio", "write_tensor", "tensorio.write"),
    ("irvis.tensorio", "write_checkpoint", "tensorio.write"),
    ("irvis.tensorio", "write_adapter_checkpoint", "tensorio.write"),
    ("irvis.tensorio", "read_tensor", "tensorio.read"),
    ("irvis.tensorio", "read_checkpoint", "tensorio.read"),
    ("irvis.tensorio", "read_adapter_checkpoint", "tensorio.read"),
    ("irvis.cli", "parse_config", "cli.parse_config"),
)

HOOK = "trace.hook"

# name -> (unit, better): the per-layer metrics of a traced run.
PER_LAYER = {
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.tape_nodes": ("count", "lower"),
    "encoder.teacher_ms": ("ms", "lower"),
    "encoder.teacher_calls": ("count", "lower"),
    "encoder.teacher_repeat_share": ("1", "higher"),
    "encoder.student_ms": ("ms", "lower"),
    "encoder.student_calls": ("count", "lower"),
    "encoder.taped_share": ("1", "lower"),
    "lora.active_share": ("1", "higher"),
    "lora.delta_ms": ("ms", "lower"),
    "lora.delta_calls": ("count", "lower"),
    "lora.merge_ms": ("ms", "lower"),
    "pccl.pseudo_labels_ms": ("ms", "lower"),
    "pccl.pseudo_labels_calls": ("count", "lower"),
    "pccl.similarity_ms": ("ms", "lower"),
    "pccl.loss_ms": ("ms", "lower"),
    "training.step_self_ms": ("ms", "lower"),
    "training.probe_ms": ("ms", "lower"),
    "data.gen_ms": ("ms", "lower"),
    "data.pnm_read_ms": ("ms", "lower"),
    "data.pnm_write_ms": ("ms", "lower"),
    "data.bytes_read": ("bytes", "lower"),
    "data.bytes_written": ("bytes", "lower"),
    "tensorio.write_ms": ("ms", "lower"),
    "tensorio.read_ms": ("ms", "lower"),
    "tensorio.bytes_written": ("bytes", "lower"),
    "cli.parse_config_ms": ("ms", "lower"),
    "cli.command_self_ms": ("ms", "lower"),
    "trace.overhead_share": ("1", "lower"),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def tape_nodes(root) -> int:
    """Number of distinct tensors reachable from ``root`` through the tape."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans ``[name, start, end, parent, root, attrs]`` in memory.

    A span's root is the outermost open span when it started: the unit of
    work, the step or the CLI command it belongs to.  Work done by a hook
    (hashing an input, walking the tape) is recorded as its own ``trace.hook``
    span so that it is not counted as the parent's self time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._teachers: list[dict] = []  # kept alive so their ids stay unique
        self._teacher_ids: set[int] = set()
        self._seen_teacher_inputs: set[tuple] = set()
        self._hooks = {
            "autodiff.backward": self._after_backward,
            "encoder.init_params": self._after_init_params,
            "encoder.encode": self._after_encode,
            "data.pnm_read": self._file_size,
            "data.pnm_write": self._file_size,
            "tensorio.read": self._file_size,
            "tensorio.write": self._file_size,
        }

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent,
               idx if parent is None else self.spans[parent][4], None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                with self.span(HOOK):
                    rec[5] = hook(args, kwargs, out)
            return out
        return traced

    def patches(self):
        return [(owner, attr, self.wrap(name, getattr(owner, attr)))
                for owner, attr, name in
                ((_resolve(o), a, n) for o, a, n in SPAN_SITES)]

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def register_teacher(self, params: dict) -> None:
        if id(params) not in self._teacher_ids:
            self._teachers.append(params)
            self._teacher_ids.add(id(params))

    # -- hooks: attributes stored on the span ----------------------------

    @staticmethod
    def _after_backward(args, kwargs, out):
        return {"nodes": tape_nodes(args[0])}

    def _after_init_params(self, args, kwargs, out):
        # init_params only ever builds the frozen teacher in this program.
        self.register_teacher(out)
        return None

    def _after_encode(self, args, kwargs, out):
        img, params = args[0], args[1]
        attrs = {
            "teacher": id(params) in self._teacher_ids,
            "taped": out.features.requires_grad,
            "adapters": kwargs.get("adapters") is not None,
        }
        if attrs["teacher"]:
            data = np.ascontiguousarray(getattr(img, "data", img))
            key = (id(params), hashlib.blake2b(data.tobytes(), digest_size=16).digest())
            attrs["repeat"] = key in self._seen_teacher_inputs
            self._seen_teacher_inputs.add(key)
        return attrs

    @staticmethod
    def _file_size(args, kwargs, out):
        return {"bytes": os.path.getsize(args[0])}


def summarize_unit(spans: list[list], speed: float = 1.0) -> dict:
    """Per-unit totals and per-step samples from one unit's spans.

    ``spans`` is a list in recording order whose parent indices point into
    the same list; every duration is multiplied by ``speed``.
    """
    to_ms = 1e3 * speed
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * to_ms
    total = {}
    calls = {}
    steps_self, backward_ms, nodes = [], [], []
    enc = {"teacher": 0, "repeat": 0, "student": 0, "taped": 0, "adapters": 0}
    data_read = data_written = ckpt_written = 0
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        ms = (end - start) * to_ms
        key = name
        if name == "encoder.encode":
            key = "encoder.teacher" if attrs["teacher"] else "encoder.student"
            enc["teacher" if attrs["teacher"] else "student"] += 1
            enc["repeat"] += bool(attrs.get("repeat"))
            enc["taped"] += attrs["taped"]
            if not attrs["teacher"]:
                enc["adapters"] += attrs["adapters"]
        elif name == "training.train_step":
            steps_self.append(ms - child_ms[i])
        elif name == "autodiff.backward":
            backward_ms.append(ms)
            nodes.append(attrs["nodes"])
        elif name == "cli.command":
            total["cli.command_self"] = total.get("cli.command_self", 0.0) + ms - child_ms[i]
        elif name == "data.pnm_read":
            data_read += attrs["bytes"]
        elif name == "data.pnm_write":
            data_written += attrs["bytes"]
        elif name == "tensorio.write":
            ckpt_written += attrs["bytes"]
        total[key] = total.get(key, 0.0) + ms
        calls[key] = calls.get(key, 0) + 1
    return {"total_ms": total, "calls": calls, "steps_self_ms": steps_self,
            "backward_ms": backward_ms, "tape_nodes": nodes, "encodes": enc,
            "bytes": {"data_read": data_read, "data_written": data_written,
                      "tensorio_written": ckpt_written}}


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_metrics(units: list[dict], overhead_share: float) -> dict:
    """Per-layer metrics from the summaries of the traced units.

    Totals and counts are per unit of work (median over traced units);
    ``backward_ms``, ``tape_nodes`` and ``step_self_ms`` are medians over
    steps; shares are taken over every traced call.
    """
    def per_unit(section, key):
        return float(np.median([u[section].get(key, 0) for u in units]))

    def per_step(key):
        values = [v for u in units for v in u[key]]
        return float(np.median(values)) if values else 0.0

    enc = {k: sum(u["encodes"][k] for u in units) for k in units[0]["encodes"]}
    by_bytes = {k: float(np.median([u["bytes"][k] for u in units]))
                for k in units[0]["bytes"]}
    values = {
        "autodiff.backward_ms": per_step("backward_ms"),
        "autodiff.tape_nodes": per_step("tape_nodes"),
        "encoder.teacher_ms": per_unit("total_ms", "encoder.teacher"),
        "encoder.teacher_calls": per_unit("calls", "encoder.teacher"),
        "encoder.teacher_repeat_share": _share(enc["repeat"], enc["teacher"]),
        "encoder.student_ms": per_unit("total_ms", "encoder.student"),
        "encoder.student_calls": per_unit("calls", "encoder.student"),
        "encoder.taped_share": _share(enc["taped"], enc["teacher"] + enc["student"]),
        "lora.active_share": _share(enc["adapters"], enc["student"]),
        "lora.delta_ms": per_unit("total_ms", "lora.delta"),
        "lora.delta_calls": per_unit("calls", "lora.delta"),
        "lora.merge_ms": per_unit("total_ms", "lora.merge"),
        "pccl.pseudo_labels_ms": per_unit("total_ms", "pccl.pseudo_labels"),
        "pccl.pseudo_labels_calls": per_unit("calls", "pccl.pseudo_labels"),
        "pccl.similarity_ms": per_unit("total_ms", "pccl.similarity"),
        "pccl.loss_ms": per_unit("total_ms", "pccl.loss"),
        "training.step_self_ms": per_step("steps_self_ms"),
        "training.probe_ms": per_unit("total_ms", "training.probe"),
        "data.gen_ms": per_unit("total_ms", "data.gen"),
        "data.pnm_read_ms": per_unit("total_ms", "data.pnm_read"),
        "data.pnm_write_ms": per_unit("total_ms", "data.pnm_write"),
        "data.bytes_read": by_bytes["data_read"],
        "data.bytes_written": by_bytes["data_written"],
        "tensorio.write_ms": per_unit("total_ms", "tensorio.write"),
        "tensorio.read_ms": per_unit("total_ms", "tensorio.read"),
        "tensorio.bytes_written": by_bytes["tensorio_written"],
        "cli.parse_config_ms": per_unit("total_ms", "cli.parse_config"),
        "cli.command_self_ms": per_unit("total_ms", "cli.command_self"),
        "trace.overhead_share": overhead_share,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
