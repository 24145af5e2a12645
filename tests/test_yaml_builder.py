"""The event builder of ``files._located`` against PyYAML's own loading.

Each text is loaded under each loader ``L`` twice: with ``files._located(L)``,
and with the same located loader building as PyYAML does, with ``L``'s own
composer and PyYAML's constructor, which serves as the oracle. Both must
give the same tree (``repr`` also compares types and key order) whose
containers are shared in the same places, or both must raise the same
error, located and worded alike. Where the oracle builds a tree, ``L``
itself builds it too: the located scalar constructors change only errors.
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
    """``files._located(loader)``, composing each document into nodes and
    building it with PyYAML's constructor."""
    return type("Stock" + loader.__name__, (files._located(loader),),
                {"get_single_data": loader.get_single_data})


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


# The plain documents the builder builds itself, composing no node.
BUILT = [
    "{a: [b, {c: d}], e: [[f]], g: {}, h: []}",
    "[~, null, '', true, False, yes, off, 0, -12, 0x1f, 0o17, 0b101, 1_000,"
    " '190:20:30', 190:20:30, 1.5, -1e3, .inf, -.Inf, .nan, 2026-10-18,"
    " 2026-10-18 12:00:00, 2026-10-18t12:00:00.5-05:00, abc, '2026-10-18']",
    "{1: a, 1.5: b, true: c, ~: d, 2026-10-18: e, x: f}",
    "{a: 1, a: 2}",
    "time: 2026-10-18",
    "",
    "# only a comment\n",
    "--- a\n...",
    "--- {a: 1}\n...\n",
    "a:\n  - b\n  - c: d\n    e:\n      - [f, 1]\n      - g: {h: ~}\ni: 2\n",
]

# Those, and every case the builder leaves to PyYAML: a tag, an anchor or
# an alias among them. A builder that called a collection constructor on
# ``!!seq a`` would return a generator object where PyYAML raises. In the
# last case, a scalar that cannot be built comes before a repeated anchor:
# PyYAML composes the whole document before it builds one scalar, so the
# anchor is its error.
CASES = BUILT + [
    "{a: &x [1, 2], b: *x, c: &y {k: *x}, d: [*y, *y]}",
    "[&s x, *s, &t 5, *t]",
    "! 12",
    "! [a]",
    "{&k a: 1, b: *k, *k : 2}",
    "[{&k 1: a}, {*k : b}]",
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
    "[a, b",
    "a\n--- b",
    "--- [a]\n--- [a, b",
    "&a {? a : 2026-13-45, ? a : &a []}",
]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda L: L.__name__)
@pytest.mark.parametrize("text", CASES)
def test_builder_matches_pyyaml(loader, text):
    assert_built_alike(loader, text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda L: L.__name__)
def test_equal_texts_share_one_str(loader):
    first, second = yaml.load(
        "[{id: A1, role: nurse}, {id: A2, role: nurse}]", Loader=files._located(loader)
    )
    assert [a is b for a, b in zip(first, second)] == [True, True]
    assert first["role"] is second["role"]
    assert (first["id"], second["id"]) == ("A1", "A2")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda L: L.__name__)
@pytest.mark.parametrize("text", BUILT)
def test_builder_builds_plain_documents_itself(loader, text, monkeypatch):
    def compose(self):
        raise AssertionError("the document was left to PyYAML")

    monkeypatch.setattr(files._located(loader), "get_single_node", compose)
    yaml.load(text, Loader=files._located(loader))


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


nodes = st.recursive(st.sampled_from(SCALARS), _flow, max_leaves=12)
# A document's node, with or without its markers, alone or before another.
texts = st.tuples(
    st.sampled_from(("", "", "--- ")),
    nodes,
    st.sampled_from(("", "", "\n...\n", "\n--- b", "\n...\n--- [a\n")),
).map("".join)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda L: L.__name__)
@given(text=texts)
@settings(max_examples=300, deadline=None)
def test_builder_matches_pyyaml_on_random_texts(loader, text):
    assert_built_alike(loader, text)
