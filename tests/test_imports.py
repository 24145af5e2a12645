"""No module under ``src/`` or ``tests/`` imports a name it never uses, and
the engine defines no function or class that only its tests name.

A name counts as used when it is read anywhere in the module, including
inside a string annotation, or listed in ``__all__``.
"""

import ast
import pathlib
import re
from collections import Counter

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


# -- definitions that nothing in the engine or the bench names ---------------

ENGINE = sorted((ROOT / "src" / "ctxflow").glob("*.py"))
SHIPPED = sorted(path for top in ("src", "bench") for path in (ROOT / top).rglob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def names_in(node):
    """Every identifier ``node`` names: names read, attributes, imported
    names, and each part of a string that is a dotted name (the bench hooks
    name what they wrap as ``"Class.method"`` strings)."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if DOTTED.match(child.value):
                found.update(child.value.split("."))
    return found


def unnamed_definitions(definers, sources):
    """``(module, name)`` of each module-level function or class in
    ``definers`` that no source in ``sources`` names outside its own body.

    Both arguments map a module name to its source text.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    named = Counter()
    for tree in trees.values():
        named.update(names_in(tree))
    unnamed = []
    for module in definers:
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if named[node.name] == names_in(node)[node.name]:
                    unnamed.append((module, node.name))
    return unnamed


def test_unnamed_definition_is_found():
    sources = {
        "engine": (
            "def called(): return 1\n"
            "def hooked(): return 2\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Unused: pass\n"
            "x = called()\n"
        ),
        "bench": 'HOOKS = [("engine", "hooked")]\n',
    }
    assert unnamed_definitions(["engine"], sources) == [
        ("engine", "recursive"),
        ("engine", "Unused"),
    ]


def test_engine_defines_nothing_only_tests_name():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in SHIPPED
    }
    definers = [str(path.relative_to(ROOT)) for path in ENGINE]
    assert unnamed_definitions(definers, sources) == []
