"""The one-pass builder of ``files._located`` against PyYAML's constructor.

Each text is loaded under each loader ``L`` twice: with ``files._located(L)``,
and with the same loader built by PyYAML's own ``construct_document``, which
serves as the oracle. Both must give the same tree (``repr`` also compares
types and key order) whose containers are shared in the same places, or
both must raise the same error, located and worded alike. Where the oracle
builds a tree, ``L`` itself builds it too: the located scalar constructors
change only errors.
"""

from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOADERS
from ctxflow import files

PATH = Path("doc.yaml")


def _stock(loader):
    """``files._located(loader)``, built by PyYAML's constructor."""
    return type("Stock" + loader.__name__, (files._located(loader),),
                {"construct_document": loader.construct_document})


def sharing(tree):
    """Each container of ``tree`` in visiting order, named by its first visit."""
    seen, order = {}, []

    def visit(data):
        if isinstance(data, (list, dict, set)):
            first = id(data) not in seen
            order.append(seen.setdefault(id(data), len(seen)))
            if first:
                for item in (data.items() if isinstance(data, dict) else data):
                    visit(item)
        elif isinstance(data, tuple):
            for item in data:
                visit(item)

    visit(tree)
    return order


def outcome(loader, text):
    try:
        tree = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        return type(exc), str(files._parse_error(PATH, text, exc))
    return repr(tree), sharing(tree)


def assert_built_alike(loader, text):
    built = outcome(files._located(loader), text)
    assert built == outcome(_stock(loader), text), text
    if isinstance(built[0], str):
        assert built == outcome(loader, text), text


# The plain documents the builder builds, and every case it must leave to
# PyYAML. A builder that called a collection constructor on ``!!seq a`` would
# return a generator object where PyYAML raises.
CASES = [
    "{a: [b, {c: d}], e: [[f]], g: {}, h: []}",
    "[~, null, '', true, False, yes, off, 0, -12, 0x1f, 0o17, 0b101, 1_000,"
    " '190:20:30', 190:20:30, 1.5, -1e3, .inf, -.Inf, .nan, 2026-10-18,"
    " 2026-10-18 12:00:00, 2026-10-18t12:00:00.5-05:00, abc, '2026-10-18']",
    "{1: a, 1.5: b, true: c, ~: d, 2026-10-18: e, x: f}",
    "{a: &x [1, 2], b: *x, c: &y {k: *x}, d: [*y, *y]}",
    "[&s x, *s, &t 5, *t]",
    "&a [*a]",
    "&a {x: *a}",
    "{a: *ghost}",
    "[&a [1], &a [2]]",
    "{base: &b {x: 1, y: 2}, more: {<<: *b, y: 3}}",
    "{<<: [{a: 1}, {b: 2}], c: 3}",
    "{<<: a}",
    "{=: 1, b: 2}",
    "{? [a] : 1}",
    "{&k [1]: *k}",
    "{a: 1, a: 2}",
    "[!!str 12, !!str, !!str ~]",
    "!!int x",
    "[!!int 12, !!int x]",
    "a: !!int ''",
    "[!!bool x]",
    "[!!timestamp x]",
    "!!set {a, b}",
    "!!omap [{a: 1}, {b: 2}]",
    "!!pairs [{a: 1}, {a: 2}]",
    "[!!binary aGVsbG8=]",
    "[!!binary x]",
    "!!seq a",
    "!!map a",
    "{a: !!seq a}",
    "{a: !!map a}",
    "!!seq [a]",
    "!!map {a: 1}",
    "!!str [a]",
    "!!str {a: 1}",
    "[!!null '', !!float 1, !!bool yes]",
    "!foo x",
    "{a: !foo [1]}",
    "time: 2026-13-45",
    "time: 2026-10-18",
    "[a, b",
]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda L: L.__name__)
@pytest.mark.parametrize("text", CASES)
def test_builder_matches_pyyaml(loader, text):
    assert_built_alike(loader, text)


SCALARS = (
    "", "~", "null", "true", "False", "yes", "off", "0", "-12", "0x1f", "0o17",
    "1_000", "190:20:30", "1.5", "-1e3", ".inf", "-.Inf", ".nan",
    "2026-10-18", "2026-10-18 12:00:00", "2026-10-18t12:00:00.5-05:00",
    "2026-13-45", "abc", "'q'", '"2026-10-18"', "!!str 12", "!!int 12",
    "!!int x", "!!float 1", "!!bool yes", "!!null ''", "!!binary aGVsbG8=",
    "!!seq a", "!!map a", "!foo x", "=", "<<", "*a", "*b",
)
KEYS = ("a", "b", "1", "~", "true", "2026-10-18", "<<", "=", "*a", "[a]", "'k'")
PROPERTIES = ("", "", "", "&a ", "&b ")
TAGS = ("",) * 6 + ("!!set ", "!!omap ", "!!pairs ", "!!seq ", "!!map ",
                    "!!str ", "!foo ")


def _flow(children):
    seqs = st.lists(children, max_size=4).map(lambda items: "[%s]" % ", ".join(items))
    maps = st.lists(
        st.tuples(st.sampled_from(KEYS), children), max_size=4
    ).map(lambda items: "{%s}" % ", ".join("? %s : %s" % kv for kv in items))
    return st.tuples(
        st.sampled_from(PROPERTIES), st.sampled_from(TAGS), seqs | maps
    ).map("".join)


texts = st.recursive(st.sampled_from(SCALARS), _flow, max_leaves=12)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda L: L.__name__)
@given(text=texts)
@settings(max_examples=300, deadline=None)
def test_builder_matches_pyyaml_on_random_texts(loader, text):
    assert_built_alike(loader, text)
