"""Every public function and class in ``src/irvis``, and every public method
and property of a public class, has a caller outside the tests: another
module of the package (re-exports in ``__init__.py`` do not count), its own
module beyond its definition, or ``perfbench/``.  A name that only tests
reach is surface to delete, or it is kept here with its reason for as
long as it lacks a caller.

A module-level name is called only where a load resolves to its definition:
``alias.name`` with ``alias`` bound to the defining module, a name imported
from that module, or a load in the defining module itself.  A parameter or
local of the same name shadows it, as Python's scoping does.  A method or
property is called at any attribute load of its name.  An entry of
``perfbench/tracing.py``'s ``SPAN_SITES`` calls the function it wraps.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import irvis.autodiff as ad
from irvis import tensorio
from irvis.cli import main
from irvis.encoder import init_params
from irvis.lora import LoraConfig, adapter_tensors, attach
from irvis.training import (LOSS_KINDS, TrainConfig, frozen_teacher, lr_at, make_pretrain_pairs,
                            student_state, teacher_targets, train_step)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irvis"

KEPT = {
    "grad_check": "the finite-difference oracle every gradient test compares against",
    "unmerge": "acceptance 3 pins the merge/unmerge round trip",
    "sparsity_report": "the planned run trace writes it at the end of a run",
}

# The functions of the package that may call ``Tensor(...)``: each builds
# weights a step trains, or the value a gradient is checked on.  Any other
# value the program hands a tape op, the weights of a model that no step
# trains included, takes no gradient, so it is a plain array.
TENSOR_CALLERS = {
    "init_params": "the encoder's weights",
    "student_state": "the student's trainable copy of the teacher",
    "attach": "the adapters' A and B",
    "grad_check": "the oracle's probe and its perturbed copies",
}

SCOPES = (ast.Module, ast.FunctionDef, ast.ClassDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_members(tree):
    """(class, member) for the public methods and properties of public classes."""
    return [(cls, node) for cls in public_definitions(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def own_nodes(scope):
    """The nodes under ``scope``, without those of the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


class Loads(ast.NodeVisitor):
    """What the loads of one file resolve to.

    ``own`` names the file's module in the package (None outside it) and
    ``modules`` all the package's modules.  A binding is ``("module", m)``
    (``m`` is "" for the package), ``("name", m, name)``, or None for a name
    that is nothing of the package.  ``resolved`` collects ``(m, name,
    site)`` and ``attrs`` ``(attr, site)``: ``site`` is the file's module and
    the definitions, outermost first, that the load sits in.
    """

    def __init__(self, own, modules):
        self.own, self.modules = own, modules
        self.scopes = []  # (is_class, name -> binding), innermost last
        self.site = []
        self.resolved, self.attrs = set(), set()

    def module_binding(self, dotted):
        head, _, rest = dotted.partition(".")
        if head == PACKAGE.name and (not rest or rest in self.modules):
            return ("module", rest)
        return None

    def imported(self, node):
        """name -> binding for an import statement."""
        if isinstance(node, ast.Import):
            return {a.asname or a.name.partition(".")[0]:
                    self.module_binding(a.name if a.asname else a.name.partition(".")[0])
                    for a in node.names}
        source = (("module", node.module or "") if node.level
                  else self.module_binding(node.module))
        if source == ("module", ""):
            return {a.asname or a.name: self.module_binding(f"{PACKAGE.name}.{a.name}")
                    for a in node.names}
        return {a.asname or a.name: source and ("name", source[1], a.name)
                for a in node.names}

    def bindings(self, scope):
        """name -> binding for the names ``scope`` binds for itself."""
        own = self.own if isinstance(scope, ast.Module) else None
        out, shared = {}, set()
        for node in own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.update(self.imported(node))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                out.setdefault(node.id, own and ("name", own, node.id))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[node.name] = own and ("name", own, node.name)
            elif isinstance(node, ast.arg):
                out[node.arg] = None
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out[node.name] = None
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        return {k: v for k, v in out.items() if k not in shared}

    def resolve(self, node):
        if isinstance(node, ast.Name):
            # a class body's names are not visible in the scopes nested in it
            for depth, (is_class, names) in enumerate(reversed(self.scopes)):
                if node.id in names and not (is_class and depth):
                    return names[node.id]
        elif isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base and base[0] == "module":
                if base[1]:
                    return ("name", base[1], node.attr)
                return self.module_binding(f"{PACKAGE.name}.{node.attr}")
        return None

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.record(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.attrs.add((node.attr, self.where()))
            self.record(node)
        self.visit(node.value)

    def record(self, node):
        binding = self.resolve(node)
        if binding and binding[0] == "name":
            self.resolved.add((*binding[1:], self.where()))

    def where(self):
        return (self.own, *filter(None, self.site))

    def visit_scope(self, node):
        self.scopes.append((isinstance(node, ast.ClassDef), self.bindings(node)))
        self.site.append(getattr(node, "name", None))
        self.generic_visit(node)
        self.site.pop()
        self.scopes.pop()

    visit_Module = visit_FunctionDef = visit_ClassDef = visit_Lambda = visit_scope
    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_scope


def span_sites(tree):
    """The ``SPAN_SITES`` tuple assigned in ``tree``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPAN_SITES" for t in node.targets)):
            return ast.literal_eval(node.value)
    return ()


def unused_names(package, callers=(), sites=()):
    """Public names of ``package`` (module -> tree) that nothing but their own
    definition calls.  ``callers`` are the trees of files outside the package,
    ``sites`` the ``SPAN_SITES`` entries of the benchmark's tracer."""
    resolved, attrs = set(), set()
    for own, tree in [*package.items(), *((None, t) for t in callers)]:
        loads = Loads(own, set(package))
        loads.visit(tree)
        resolved |= loads.resolved
        attrs |= loads.attrs
    for owner, attr, _ in sites:
        module, _, cls = owner.partition(":")
        module = module.removeprefix(PACKAGE.name + ".")
        if cls:
            attrs.add((attr, ("perfbench",)))
        else:
            resolved.add((module, attr, ("perfbench",)))
    unused = []
    for stem, tree in package.items():
        for node in public_definitions(tree):
            if not any(m == stem and n == node.name and site[:2] != (stem, node.name)
                       for m, n, site in resolved):
                unused.append(f"{stem}.{node.name}")
        for cls, node in public_members(tree):
            if not any(a == node.name and site[:3] != (stem, cls.name, node.name)
                       for a, site in attrs):
                unused.append(f"{stem}.{cls.name}.{node.name}")
    return unused


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def package_unused():
    package = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    callers = [parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return unused_names(package, callers, span_sites(parse(ROOT / "perfbench" / "tracing.py")))


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = {name.split(".", 1)[1]: name for name in package_unused()}
    only_tests = [unused[key] for key in set(unused) - set(KEPT)]
    assert not only_tests, f"public names that only tests reach: {only_tests}"
    assert set(KEPT) <= set(unused), f"kept names that have a caller: {set(KEPT) - set(unused)}"


def test_kept_names_exist():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = parse(path)
            defined |= {node.name for node in public_definitions(tree)}
            defined |= {f"{cls.name}.{node.name}" for cls, node in public_members(tree)}
    assert set(KEPT) <= defined, set(KEPT) - defined


def trees(**sources):
    return {name: ast.parse(textwrap.dedent(src)) for name, src in sources.items()}


RESOLVER_CASES = {
    # a public function whose name appears elsewhere only as a parameter
    "parameter": (trees(ops="""
        def attention(x):
            return x
        def pseudo_labels(attention, gamma):
            return attention > gamma
        """, pccl="""
        from .ops import pseudo_labels
        def labels(attention):
            return pseudo_labels(attention, 0.5)
        """), ["ops.attention", "pccl.labels"]),
    # a local of the same name in the defining module
    "local": (trees(ops="""
        def tsum(x):
            return x
        def mean(x):
            tsum = x.sum()
            return [tsum for tsum in x], tsum
        """), ["ops.tsum", "ops.mean"]),
    # an alias bound to another module than the defining one
    "other_module": (trees(ops="""
        def gelu(x):
            return x
        """, act="""
        def relu(x):
            return x
        """, nn="""
        from . import act as ad
        def block(x):
            return ad.gelu(x)
        """), ["ops.gelu", "act.relu", "nn.block"]),
    # each resolving form counts: an alias, an imported name, a load in the
    # defining module and an attribute load of a method
    "resolved": (trees(ops="""
        def tsum(x):
            return x
        def gelu(x):
            return tsum(x)
        def attention(x):
            return Tensor()
        class Tensor:
            def item(self):
                return self
        """, nn="""
        from . import ops as ad
        from .ops import gelu as act
        def block(x):
            return act(ad.attention(x)).item()
        """), ["nn.block"]),
}


def test_span_sites_and_outside_callers_count():
    package = trees(ops="""
        def encode(x):
            return Tensor()
        def decode(x):
            return x
        class Tensor:
            def backward(self):
                return self
        """)
    caller = ast.parse(f"import {PACKAGE.name}.ops\n{PACKAGE.name}.ops.decode(1)\n")
    sites = (
        (f"{PACKAGE.name}.ops", "encode", "ops.encode"),
        (f"{PACKAGE.name}.ops:Tensor", "backward", "ops.backward"),
    )
    assert unused_names(package, [caller], sites) == []
    assert unused_names(package) == ["ops.encode", "ops.decode", "ops.Tensor.backward"]


@pytest.mark.parametrize("case", sorted(RESOLVER_CASES))
def test_only_a_load_that_resolves_to_the_definition_is_a_caller(case):
    package, flagged = RESOLVER_CASES[case]
    assert sorted(unused_names(package)) == sorted(flagged)


def test_every_tape_op_runs_in_a_program_path(toy_cfg, tmp_path, monkeypatch):
    """Each op name a ``_make`` call in the package passes is made while the
    program runs: a ``train_step`` per loss kind, with LoRA and as a full
    fine-tune, each after its teacher pass, and ``irvis merge``'s two-path
    check.  An op only the tests run belongs beside them, and the package
    imports nothing from the tests."""
    ran = set()
    make = ad._make

    def recording(data, operands, backward, op):
        ran.add(op)
        return make(data, operands, backward, op)

    monkeypatch.setattr(ad, "_make", recording)
    teacher = frozen_teacher(toy_cfg)
    batch = make_pretrain_pairs(2, seed=0)
    for loss_kind in LOSS_KINDS:
        for lora in (LoraConfig(), None):
            cfg = TrainConfig(epochs=1, warmup_epochs=0, loss_kind=loss_kind, lora=lora)
            targets = teacher_targets(batch, teacher, toy_cfg, cfg.gamma)
            train_step(student_state(teacher, lora), batch, targets, toy_cfg, cfg,
                       lr_at(0, cfg, 1))
    params = init_params(toy_cfg)
    adapters = {name: t.data for name, t in adapter_tensors(
        attach(params, LoraConfig(rank=2))).items()}
    tensorio.write_checkpoint(tmp_path / "base.ckpt", {n: t.data for n, t in params.items()})
    tensorio.write_adapter_checkpoint(tmp_path / "adapters.ckpt", adapters,
                                      rank=2, alpha=32.0, dropout=0.1)
    assert main(["merge", "--checkpoint", str(tmp_path / "base.ckpt"), "--adapters",
                 str(tmp_path / "adapters.ckpt"), "--out", str(tmp_path / "merged.ckpt")]) == 0

    made, imported = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(parse(path)):
            if (isinstance(node, ast.Call) and "_make" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))):
                made.add(node.args[-1].value)
            elif isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert made - ran == set(), "ops that no program path runs"
    test_modules = {"tests"} | {p.stem for p in Path(__file__).parent.glob("*.py")}
    assert imported & test_modules == set(), "the package imports from the tests"


def tensor_calls(tree):
    """function name -> how many ``Tensor(...)`` calls its body makes, for
    each module-level function and method of ``tree``; ``Tensor.__new__``
    is not a call of ``Tensor``."""
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(node.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    counts = {}
    for name, fn in functions:
        n = sum(isinstance(node, ast.Call)
                and "Tensor" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(fn))
        if n:
            counts[name] = n
    return counts


def test_only_weight_makers_construct_tensors():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls.update(tensor_calls(parse(path)))
    outside = {name: n for name, n in calls.items() if name not in TENSOR_CALLERS}
    assert not outside, f"Tensor(...) outside the functions that make weights: {outside}"
    assert set(calls) == set(TENSOR_CALLERS), f"listed functions that make no Tensor: " \
        f"{set(TENSOR_CALLERS) - set(calls)}"


def requires_grad_stores(tree):
    """The names of the module-level functions and methods of ``tree`` that
    store to an attribute ``requires_grad``."""
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {fn.name for fn in functions for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "requires_grad"
            and isinstance(node.ctx, ast.Store)}


def test_only_autodiff_and_attach_set_requires_grad():
    """A weight that no step trains is an array, so nothing outside the tape
    switches a gradient off but ``attach``, which freezes the student's base."""
    stores = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in requires_grad_stores(parse(path))}
    outside = {site for site in stores if site[0] != "autodiff" and site != ("lora", "attach")}
    assert not outside, f"requires_grad set outside autodiff and lora.attach: {outside}"
    assert ("lora", "attach") in stores


def test_requires_grad_stores_are_found_per_function():
    tree = ast.parse(textwrap.dedent("""
        def freeze(params):
            for t in params.values():
                t.requires_grad = False
        def read(t):
            return t.requires_grad
        class Weight:
            def thaw(self):
                self.w.requires_grad = True
        """))
    assert requires_grad_stores(tree) == {"freeze", "thaw"}


def test_tensor_calls_are_counted_per_function():
    tree = ast.parse(textwrap.dedent("""
        def weights():
            return {k: Tensor(v) for k, v in {}.items()}, ad.Tensor(0.0)
        def node():
            return Tensor.__new__(Tensor)
        class Adapter:
            def delta(self):
                return Tensor(0.0)
        """))
    assert tensor_calls(tree) == {"weights": 2, "delta": 1}
