"""Checks of the package's imports: every module reads each name it imports,
and importing the package loads numpy and the standard library only."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stripeloc"


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def unused_imports(source: str) -> list:
    """(line, name) of every name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = ("import math\nimport os.path\nfrom typing import Optional, Sequence\n"
              "x: Optional[int] = math.pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "Sequence")]


def test_package_modules_have_no_unused_imports():
    # __init__.py imports only to re-export, so it is left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name}:{line} {name}"
              for p in modules for line, name in unused_imports(p.read_text())]
    assert unused == []


_IMPORT_SET = """
import sys
before = set(sys.modules)
import stripeloc
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names))))
"""


def test_import_loads_numpy_only():
    # the snapshots are diffed because site hooks may load packages (such as
    # certifi) before any user code runs; scipy.linalg is loaded by the first
    # bound, never by the import
    assert run_fresh(_IMPORT_SET).split() == ["numpy", "stripeloc"]


_BOUNDS_LOAD = """
import sys
import stripeloc
print("scipy.linalg" in sys.modules)
sc = stripeloc.canonical_scenario()
stripeloc.compute_bounds(sc, stripeloc.FimOptions(sync_mode=sc.sync_mode, D=sc.D))
print("scipy.linalg" in sys.modules)
"""


def test_first_bound_loads_scipy_linalg():
    # the bounds keep LAPACK's Cholesky through scipy.linalg, imported on use
    assert run_fresh(_BOUNDS_LOAD).split() == ["False", "True"]
