"""Static check of the package source: every module reads each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stripeloc"


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
