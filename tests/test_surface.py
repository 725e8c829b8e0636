"""Every public function and class in ``src/irvis``, and every public method
and property of a public class, has a caller outside the tests: another
module of the package (re-exports in ``__init__.py`` do not count), its own
module beyond its definition, ``perfbench/`` or ``scripts/``.  A name that
only tests reach is surface to delete, or it is kept here with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irvis"

KEPT = {
    "grad_check": "the finite-difference oracle every gradient test compares against",
    "tsum": "an op of the unfused reference chains the tests compare fused ops against",
    "gelu": "a tape op of the per-op chain the tests compare ``block`` against",
    "attention": "a tape op of the per-op chain the tests compare ``block`` against",
    "unmerge": "acceptance 3 pins the merge/unmerge round trip",
    "sparsity_report": "the planned run trace writes it at the end of a run",
    "Tensor.item": "the tests read scalar losses with it",
}


def public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_members(tree):
    """(class, member) for the public methods and properties of public classes."""
    return [(cls, node) for cls in public_definitions(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def names_used(nodes, with_strings=False):
    """Identifiers referenced in ``nodes``: names, attributes, imported names
    and, with ``with_strings``, the words of string constants."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.alias) and with_strings:
                used.add(sub.name.rsplit(".", 1)[-1])
            elif (with_strings and isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str)):
                used.update(re.findall(r"\w+", sub.value))
    return used


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = set()
    for folder in ("perfbench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= names_used([parse(path)], with_strings=True)
    used = {stem: names_used([tree]) for stem, tree in modules.items()}
    unused = []
    for stem, tree in modules.items():
        elsewhere = set().union(*(u for s, u in used.items() if s != stem))
        for node in public_definitions(tree):
            own = names_used([n for n in tree.body if n is not node])
            if node.name in KEPT or node.name in own | elsewhere | outside:
                continue
            unused.append(f"{stem}.{node.name}")
        for cls, node in public_members(tree):
            own = names_used([n for n in tree.body if n is not cls]
                             + [n for n in cls.body if n is not node])
            if f"{cls.name}.{node.name}" in KEPT or node.name in own | elsewhere | outside:
                continue
            unused.append(f"{stem}.{cls.name}.{node.name}")
    assert not unused, f"public names that only tests reach: {unused}"


def test_kept_names_exist():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = parse(path)
            defined |= {node.name for node in public_definitions(tree)}
            defined |= {f"{cls.name}.{node.name}" for cls, node in public_members(tree)}
    assert set(KEPT) <= defined, set(KEPT) - defined
