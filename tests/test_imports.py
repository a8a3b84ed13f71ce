"""Every name a package module imports is used in that module.

A small AST check in place of a linter: it collects the names bound by
``import`` and ``from ... import`` statements in each module of
``src/kreinlab`` and fails on any that the module never reads.  The
package ``__init__.py`` is skipped (its imports are re-exports), as is
``from __future__``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import kreinlab

PACKAGE = Path(kreinlab.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom x import (a, b)\nnp.log(a)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


def test_package_modules_have_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            names = unused_imports(path.read_text())
            if names:
                found[path.name] = names
    assert found == {}
