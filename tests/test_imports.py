"""Checks of the package's imports: every module reads each name it imports,
package code reads or re-exports each name a module defines, and importing
the package loads numpy and the standard library only."""

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


def unread_definitions(sources: dict) -> list:
    """``module.name`` of every top-level function, class and constant of the
    modules ``sources`` (module name -> source) that no module reads, as a
    name or an attribute, and that ``__init__`` does not re-export.  Names
    are matched across modules by spelling alone."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif module == "__init__" and isinstance(node, ast.ImportFrom):
                read.update(alias.asname or alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            unread += [f"{module}.{name}" for name in names if name not in read]
    return sorted(unread)


def test_unread_definitions_are_found():
    sources = {
        "__init__": "from .a import shown\n",
        "a": "LIMIT = 3\n_SPARE = 4\ndef shown(): return helper()\ndef helper(): return LIMIT\n"
             "def dead(): pass\nclass Dead: pass\n",
        "b": "from . import a\nx = a.helper\n",
    }
    assert unread_definitions(sources) == ["a.Dead", "a._SPARE", "a.dead", "b.x"]


def test_package_defines_nothing_unread():
    # what only the tests read belongs in the tests
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []


def unread_parameters(source: str) -> list:
    """``function(parameter)`` of every parameter of every function and lambda
    of ``source`` that its body never reads, nested functions and methods
    included (named ``outer.inner``, ``Class.method``); a read in a nested
    function counts as a read."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if p is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_unread_parameters_are_found():
    source = ("def f(a, b=2, *args, c=1, **kw):\n    return a + c\n"
              "class K:\n    def m(self, x):\n        def inner(y):\n            return x\n"
              "        return inner\n"
              "g = lambda u, w: u\n")
    assert unread_parameters(source) == ["<lambda>(w)", "K.m(self)", "K.m.inner(y)", "f(args)",
                                         "f(b)", "f(kw)"]


# the parameters nothing reads that stay, each with its reason
UNREAD_PARAMETERS_KEPT = {
    # every command handler shares the dispatch signature handler(args)
    "cli.cmd_selftest(args)",
    # drops out of the dip metric, but perfbench's traced trial passes it
    # positionally, so it goes with the next revision of the benchmark
    "estimators.nst_map_scatterers(delta_phi_hat)",
}


def test_package_reads_every_parameter():
    unread = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
              for name in unread_parameters(p.read_text())]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS_KEPT)


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
