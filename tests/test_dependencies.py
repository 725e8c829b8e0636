"""The program needs only what ``pyproject.toml`` declares at run time: the
third-party modules ``src/irvis`` imports are exactly ``[project].dependencies``,
and importing the CLI loads nothing else, scipy included.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irvis"


def third_party_imports():
    """Top-level names of the absolute imports in the package, anywhere in a
    module, minus the standard library and the package itself."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"irvis"}


def test_runtime_imports_are_the_declared_dependencies():
    # each declared distribution is imported under its own name
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert sorted(third_party_imports()) == sorted(declared)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, irvis, irvis.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_data_layer_does_not_import_the_autodiff_engine():
    # images are plain arrays, so reading and rendering them needs no Tensor
    for node in ast.walk(ast.parse((PACKAGE / "data.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert "autodiff" not in {n.rpartition(".")[2] for n in names}, ast.unparse(node)
