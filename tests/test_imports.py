"""No module under ``src/`` or ``tests/`` imports a name it never uses, and
the engine defines no function or class that only its tests name, no field
that only its tests read, and no option that only its tests set.

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


# -- fields that nothing in the engine or the bench reads --------------------


def annotated_fields(tree):
    """``(class, field)`` for each annotated name in the body of each
    module-level class of ``tree``: a dataclass's fields."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def read_names(tree):
    """Every attribute ``tree`` loads, and each part of a string that is a
    dotted name (a bench hook, or the name a ``getattr`` reads)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.match(node.value):
                found.update(node.value.split("."))
    return found


def unread_fields(definers, sources):
    """``(module, class, field)`` of each annotated field of a module-level
    class in ``definers`` whose name no source in ``sources`` reads.

    Both arguments map a module name to its source text. Reads are matched
    by the attribute's name, as ``unnamed_definitions`` matches names; a
    field that is only passed to its constructor or stored is unread.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return [
        (module, cls, name)
        for module in definers
        for cls, name in annotated_fields(trees[module])
        if name not in read
    ]


def test_unread_field_is_found():
    sources = {
        "engine": (
            "@dataclass\n"
            "class Record:\n"
            "    loaded: int\n"
            "    hooked: int\n"
            "    stored: int = 0\n"
            "    passed: int = 0\n"
            "    def get(self): return self.loaded\n"
            "r = Record(1, 2, passed=3)\n"
            "r.stored = 4\n"
        ),
        "bench": 'HOOKS = [getattr(r, "hooked"), "engine.Record.get"]\n',
    }
    assert unread_fields(["engine"], sources) == [
        ("engine", "Record", "stored"),
        ("engine", "Record", "passed"),
    ]


def test_engine_holds_no_field_that_nothing_reads():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in SHIPPED
        if not path.name.startswith("test_")
    }
    definers = [str(path.relative_to(ROOT)) for path in ENGINE]
    assert unread_fields(definers, sources) == []


# -- defaulted parameters that nothing in the engine or the bench passes ------

# ``cli.main(argv)`` is how tests and the entry point hand the CLI its
# arguments; the console script passes none.
SEAMS = {("src/ctxflow/cli.py", "main", "argv")}


def passed_arguments(trees):
    """Callee name -> (most positional arguments of any call, keyword names
    passed), over every call in ``trees``; ``None`` among the keywords
    stands for ``**kwargs``, and a ``*args`` call passes every position."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            positional = len(node.args)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                positional = float("inf")
            most, keywords = passed.get(name, (0, frozenset()))
            passed[name] = (
                max(most, positional),
                keywords | {keyword.arg for keyword in node.keywords},
            )
    return passed


def unset_defaults(definers, sources):
    """``(module, function, parameter)`` of each parameter with a default,
    of each module-level function in ``definers``, that no call in
    ``sources`` passes, by position or by keyword.

    Both arguments map a module name to its source text. Calls are matched
    by the callee's name, as ``unnamed_definitions`` matches names.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    passed = passed_arguments(trees.values())
    unset = []
    for module in definers:
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            most, keywords = passed.get(node.name, (0, frozenset()))
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, param in enumerate(positional[first:], first):
                by_keyword = param not in args.posonlyargs and (
                    param.arg in keywords or None in keywords
                )
                if index >= most and not by_keyword:
                    unset.append((module, node.name, param.arg))
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and not keywords & {param.arg, None}:
                    unset.append((module, node.name, param.arg))
    return unset


def test_unset_default_is_found():
    sources = {
        "engine": (
            "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
            "def g(a=1, b=2): pass\n"
            "def h(a=1, /, b=2): pass\n"
            "def unused(a=1): pass\n"
        ),
        "bench": (
            "f(0, 1, e=5)\n"
            "x.g(*pair)\n"
            "h(a=1, **more)\n"
        ),
    }
    assert unset_defaults(["engine"], sources) == [
        ("engine", "f", "c"),
        ("engine", "f", "d"),
        ("engine", "h", "a"),
        ("engine", "unused", "a"),
    ]


def test_engine_offers_no_option_only_tests_set():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in SHIPPED
        if not path.name.startswith("test_")
    }
    definers = [str(path.relative_to(ROOT)) for path in ENGINE]
    assert [
        unset for unset in unset_defaults(definers, sources) if unset not in SEAMS
    ] == []
