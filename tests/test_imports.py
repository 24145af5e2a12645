"""No module under ``src/`` or ``tests/`` imports a name it never uses.

A name counts as used when it is read anywhere in the module, including
inside a string annotation, or listed in ``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for top in ("src", "tests")
    for path in (ROOT / top).rglob("*.py")
)


def imported_names(tree):
    """(name bound, line) for every import, ``__future__`` ones excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A forward reference such as Optional["TimedValue"].
            try:
                used.update(used_names(ast.parse(node.value, mode="eval")))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_scan_finds_modules():
    assert any(path.name == "cli.py" for path in MODULES)
    assert any(path.name == "test_imports.py" for path in MODULES)


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Dict, Optional\n"
        "from a.b import c as d\n"
        "__all__ = ['d']\n"
        "x: Optional['Dict'] = os.sep\n"
    )
    assert unused_imports(source) == [("sys", 2)]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
