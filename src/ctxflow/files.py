"""Versioned YAML document formats for graphs, models, repositories, scenarios.

Every document starts with ``version: 1`` and a ``kind`` tag; loaders reject
unknown versions and mismatched kinds so that a bundle wired to the wrong
file fails fast with the offending path in the error. Every schema lives
here, checked with one set of entry helpers: a malformed entry is a
``LoadError`` of the form ``<file>: <entry> N: <problem>``, where an entry
listed inside another names both places (``situation 0 context 3``). One
walker, ``_entries``, names and checks every listed entry.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import yaml
from yaml.constructor import ConstructorError
from yaml.events import (
    AliasEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.reader import ReaderError

from ._gc import collector_paused
from .chain import Action, ActivityChain, ActivityNode, AdaptationRule, ProcessModel
from .context import AtomicContext, ContextualSituation, ScopeFilter, is_value
from .errors import LoadError, UnknownSubgoalError
from .fragments import (
    FragmentActivity,
    FragmentRepository,
    ProcessFragment,
    SubgoalEntry,
)
from .graph import (
    AttributeNode,
    Composition,
    ContextGraph,
    DependencyRule,
    EntityNode,
    EntityRelation,
    RulePattern,
    StateNodeDef,
    composite_from_pairs,
    validate_graph,
)

SUPPORTED_VERSION = 1

# libyaml's C scanner and parser when PyYAML was built with them, else the
# pure-Python ones. Both share PyYAML's Python resolver and the builder of
# ``_located``, so a document parses into the same tree under either.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# The scalar types whose constructors fail with a Python error rather than a
# YAML one when the text cannot be built: ``2026-13-45`` (a timestamp with
# month 13) and ``!!int x`` raise a ValueError, ``!!bool x`` a KeyError,
# ``!!int ''`` an IndexError and ``!!timestamp x`` an AttributeError.
_BUILT_SCALARS = tuple(
    "tag:yaml.org,2002:" + name for name in ("bool", "int", "float", "timestamp")
)


def _at_node(construct):
    def located(loader, node):
        try:
            return construct(loader, node)
        except (ValueError, LookupError, AttributeError):
            problem = "%r is not a valid %s" % (node.value, node.tag.rsplit(":", 1)[-1])
            raise ConstructorError(None, None, problem, node.start_mark) from None
    return located


_STR = "tag:yaml.org,2002:str"


class _LeftToPyYAML(Exception):
    """A document that ``_FromEvents`` leaves to PyYAML."""


class _NestedTooDeeply(RecursionError):
    """A document nested deeper than ``_FromEvents.MAX_DEPTH``."""


class _FromEvents:
    """A loader mixin that builds each document straight from the parser's
    events, so that a load never holds PyYAML's node tree.

    Plain scalars, lists and dicts are all a document of ours holds. The
    builder keeps its open containers on a stack of its own. It resolves
    each untagged scalar once per text and per whether the text may take an
    implicit type (``implicit[0]``, true for a plain scalar): the safe
    loaders have no path resolvers, so resolving is pure and reads only
    those two. It keeps the first such text, so that equal texts share one
    ``str``. A ``str`` scalar is that text; the other implicit types are
    built with the loader's own constructors, on a ``ScalarNode`` carrying
    the event's marks. A list or dict is built when its end event comes.

    Whatever else a document holds (a tag, even ``!``, an anchor or alias,
    a ``<<`` or ``=`` key, a key that is not a scalar, a second document)
    stops the builder, and so does any exception. The loader then parses
    the saved text again with its own composer and constructor, so the
    tree, its sharing and any error, and the order in which errors arise,
    are PyYAML's. The stream must be text or bytes, which can be read twice.
    A container inside ``MAX_DEPTH`` others stops the load instead: the
    pure-Python scanner takes time quadratic in the depth of flow brackets.
    """

    MAX_DEPTH = 100

    def __init__(self, stream):
        self.saved_text = stream
        super().__init__(stream)

    def get_single_data(self):
        try:
            return self._build()
        except _NestedTooDeeply:
            raise
        except Exception:
            pass
        again = type(self)(self.saved_text)
        try:
            return super(_FromEvents, again).get_single_data()
        finally:
            again.dispose()

    def _build(self):
        next_event = self.get_event
        resolve = self.resolve
        constructors = self.scalar_constructors
        # By ``implicit[0]``: text -> its tag (None for a ``str``), that text
        plain, quoted = {}, {}
        stack = []  # the items of each container around the open one
        items = []  # the open container's; a mapping's alternate keys and values
        next_event()  # the stream's start
        if type(next_event()) is StreamEndEvent:  # else the document's start
            return None
        while True:
            event = next_event()
            cls = type(event)
            if cls is ScalarEvent:
                if event.tag is not None or event.anchor is not None:
                    raise _LeftToPyYAML(event)
                text = event.value
                known = plain if event.implicit[0] else quoted
                scalar = known.get(text)
                if scalar is None:
                    tag = resolve(ScalarNode, text, event.implicit)
                    scalar = known[text] = (None if tag == _STR else tag, text)
                tag, value = scalar
                if tag is not None:
                    # ``<<`` and ``=`` resolve to tags with no constructor here.
                    node = ScalarNode(tag, value, event.start_mark, event.end_mark)
                    value = constructors[tag](self, node)
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                if event.tag is not None or event.anchor is not None:
                    raise _LeftToPyYAML(event)
                if len(stack) == self.MAX_DEPTH:
                    raise _NestedTooDeeply(event.start_mark)
                stack.append(items)
                items = []
                continue
            elif cls is MappingEndEvent:
                pairs = iter(items)
                value = dict(zip(pairs, pairs))  # a list or dict key cannot hash
                items = stack.pop()
            elif cls is SequenceEndEvent:
                value = items
                items = stack.pop()
            elif cls is AliasEvent:
                raise _LeftToPyYAML(event)
            else:  # the document's end
                break
            items.append(value)
        if type(next_event()) is not StreamEndEvent:
            raise _LeftToPyYAML("a second document")
        (data,) = items
        return data


@functools.lru_cache(maxsize=None)
def _located(loader):
    """``loader`` with those failures raised as YAML errors at their node,
    building each document from its events (see ``_FromEvents``)."""
    located = type(loader.__name__, (_FromEvents, loader), {})
    for tag in _BUILT_SCALARS:
        located.add_constructor(tag, _at_node(loader.yaml_constructors[tag]))
    located.scalar_constructors = {
        tag: located.yaml_constructors[tag]
        for tag in _BUILT_SCALARS + ("tag:yaml.org,2002:null",)
    }
    return located


_CLOCK_RE = re.compile(
    r"^\s*(\d{1,2})[:.](\d{2})\s*(am|pm)?\s*$", re.IGNORECASE
)


def parse_time(value) -> int:
    """Clock text ("2:00 pm", "11.00 am", "10:30") or raw minutes -> minutes."""
    if isinstance(value, bool):
        raise LoadError("unreadable time %r" % (value,))
    if isinstance(value, int):
        if value < 0:
            raise LoadError("time %r is negative" % (value,))
        return value
    m = _CLOCK_RE.match(str(value))
    if m is None:
        raise LoadError("unreadable time %r" % (value,))
    hours, minutes, meridiem = int(m.group(1)), int(m.group(2)), m.group(3)
    if minutes > 59:
        raise LoadError("unreadable time %r" % (value,))
    if meridiem:
        if not 1 <= hours <= 12:
            raise LoadError("unreadable time %r" % (value,))
        hours %= 12
        if meridiem.lower() == "pm":
            hours += 12
    elif hours > 23:
        raise LoadError("unreadable time %r" % (value,))
    return hours * 60 + minutes


def _parse_error(path: Path, text: str, exc: yaml.YAMLError) -> LoadError:
    """``exc`` located as both loaders locate it, with the loader's problem.

    The loaders word a problem differently but agree on its line and column.
    A reader error has no line: the C reader counts its position in bytes
    and the Python one in characters, but both stop at the first character
    they refuse, so the position given is that character's, from 0.
    """
    if isinstance(exc, ReaderError):
        where = "position %d" % text.index(chr(exc.character))
        problem = exc.reason
    else:
        mark = exc.problem_mark
        where = "line %d, column %d" % (mark.line + 1, mark.column + 1)
        problem = exc.problem
    return LoadError("cannot parse %s: %s: %s" % (path, where, problem))


def load_document(path, kind: str) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError("cannot read %s: %s" % (path, exc))
    try:
        doc = yaml.load(text, Loader=_located(_Loader))
    except yaml.YAMLError as exc:
        raise _parse_error(path, text, exc) from None
    if not isinstance(doc, dict):
        raise LoadError("%s is not a mapping document" % (path,))
    if doc.get("version") != SUPPORTED_VERSION:
        raise LoadError("%s has unsupported version %r" % (path, doc.get("version")))
    if doc.get("kind") != kind:
        raise LoadError(
            "%s is a %r document, expected %r" % (path, doc.get("kind"), kind)
        )
    return doc


# -- entry checks ------------------------------------------------------------
#
# A malformed entry is named by its place in its list, counted from 0
# (``rule 1``, ``sub-goal 2 entry 0``); ``_load`` puts the file in front.


def _error(where: str, problem: str) -> LoadError:
    return LoadError("%s: %s" % (where, problem) if where else problem)


def _mapping(spec, where: str, *keys) -> dict:
    """``spec`` if it is a mapping holding ``keys``, else a ``LoadError``."""
    if not isinstance(spec, dict):
        raise _error(where, "not a mapping: %r" % (spec,))
    for key in keys:
        if key not in spec:
            raise _error(where, "missing %s" % (key,))
    return spec


def _list(spec: dict, key: str, where: str = "") -> list:
    items = spec.get(key, [])
    if not isinstance(items, list):
        raise _error(where, "%s must be a list, not %r" % (key, items))
    return items


def _entries(spec: dict, key: str, noun: str, *required, where: str = ""):
    """``(place, entry)`` for each item listed under ``key``: ``place`` reads
    ``<where> <noun> N``, and ``entry`` is a mapping holding ``required``."""
    items = _list(spec, key, where)
    prefix = where + " " if where else ""
    for i, entry in enumerate(items):
        place = "%s%s %d" % (prefix, noun, i)
        yield place, _mapping(entry, place, *required)


def _text(spec: dict, key: str, where: str = "", default: str = "") -> str:
    value = spec.get(key, default)
    if not isinstance(value, str):
        raise _error(where, "%s must be text, not %r" % (key, value))
    return value


def _texts(spec: dict, key: str, where: str) -> list:
    items = _list(spec, key, where)
    for item in items:
        if not isinstance(item, str):
            raise _error(where, "%s must list text, not %r" % (key, item))
    return items


def _distinct_texts(spec: dict, key: str, where: str, noun: str) -> list:
    """``_texts``, unless one item repeats an earlier one."""
    items = _texts(spec, key, where)
    seen = set()
    for item in items:
        if item in seen:
            raise _error(where, "duplicate %s %r" % (noun, item))
        seen.add(item)
    return items


def _count(spec: dict, key: str, where: str) -> int:
    value = spec.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise _error(where, "%s must be a whole number >= 0, not %r" % (key, value))
    return value


def _subgoal_key(spec: dict, where: str, default):
    """A sub-goal reference: its name, or its index in the repository."""
    value = spec.get("sub_goal", default)
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise _error(where, "sub_goal must be text or an index, not %r" % (value,))
    return value


def _pairs(items: list, where: str) -> list:
    """``[attribute, value]`` pairs: text and a text, number or truth value."""
    for item in items:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and is_value(item[1])
        ):
            raise _error(where, "not an [attribute, value] pair: %r" % (item,))
    return [tuple(item) for item in items]


def _unique(items: list, entry: str, field: str) -> list:
    """``items``, unless one repeats an earlier one's ``field``."""
    seen = set()
    for i, item in enumerate(items):
        value = getattr(item, field)
        if value in seen:
            raise _error("%s %d" % (entry, i), "duplicate %s %r" % (field, value))
        seen.add(value)
    return items


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with its ``ValueError`` as a ``LoadError``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _error(where, str(exc)) from None


def _once(shared: dict, key: tuple, build, *args):
    """``build(*args or key)``, or what this load's ``shared[build]`` holds
    under an equal ``key``: equal facts share one object (hash-consing).
    Only successes are kept; an unhashable key is built afresh."""
    table = shared[build]
    try:
        found = table.get(key)
    except TypeError:
        return build(*args or key)
    if found is None:
        found = table[key] = build(*args or key)
    return found


def _typed(value) -> tuple:
    """What a key holds beside a value that may be other than text: its type,
    since ``1``, ``1.0``, ``true`` and ``"1"`` are equal, and a zero's text,
    since ``-0.0`` equals ``0.0`` but prints apart."""
    return type(value), value == 0 and str(value)


def _load(path, kind: str, build, *args):
    """Build from the document at ``path``, naming the file in any error.

    A document nested deeper than the builder's ``MAX_DEPTH``, or than the
    recursion limit of a check that recurses into it (the ``repr`` in an
    entry's error, or PyYAML's composer), is refused as nested too deeply.
    """
    try:
        doc = load_document(path, kind)
        try:
            return build(doc, *args)
        except LoadError as exc:
            raise LoadError("%s: %s" % (path, exc)) from None
    except RecursionError:
        raise LoadError("cannot parse %s: nested too deeply" % (path,)) from None


def _context(spec: dict, where: str, shared: dict) -> AtomicContext:
    """The context ``spec``, a mapping holding its parameter and attribute."""
    key = (*spec, *spec.values(), *_typed(spec.get("value")))
    return _once(shared, key, _new_context, spec, where)


def _new_context(spec: dict, where: str) -> AtomicContext:
    parameter = _text(spec, "parameter", where)
    attribute = _text(spec, "attribute", where)
    connector = _text(spec, "connector", where, "=")
    instance = _text(spec, "instance", where) if "instance" in spec else None
    category = _text(spec, "category", where, "organization")
    temporality = _text(spec, "temporality", where, "dynamic")
    value = spec.get("value", "")
    if not is_value(value):
        raise _error(where, "value must be text, a number or a truth value, not %r"
                     % (value,))
    return _build(where, AtomicContext, parameter, attribute, connector, value,
                  instance, category, temporality)


def _pattern(spec: dict, field: str, where: str, shared: dict):
    """The pattern of the pairs under ``spec[field]`` and ``op``, and its key."""
    pairs = _pairs(_list(spec, field, where), where)
    op = _text(spec, "op", where, "AND")
    key = (op, *pairs, *[_typed(value) for _, value in pairs])
    return _once(shared, key, _new_pattern, pairs, op)


def _new_pattern(pairs: list, op: str):
    pattern = composite_from_pairs(pairs, op)
    return pattern, pattern.normalized()


# -- context graph -----------------------------------------------------------


def _composition(spec, node: str, enclosing=()) -> Composition:
    """The composition ``spec`` of the state node named ``node``.

    ``enclosing`` holds the compositions around ``spec``: an alias can make
    one contain itself, which would otherwise recurse without end.
    """
    where = node + " composition"
    spec = _mapping(spec, where)
    if any(spec is outer for outer in enclosing):
        raise _error(node, "composition refers to itself")
    enclosing += (spec,)
    items = tuple(
        item if isinstance(item, str) else _composition(item, node, enclosing)
        for item in _list(spec, "items", where)
    )
    return _build(where, Composition, _text(spec, "op", where, "AND"), items)


def _shape(parameters: tuple, attributes: tuple, composition) -> tuple:
    """A state node's parts; the composition defaults to AND over its attributes."""
    return parameters, attributes, composition or Composition("AND", attributes)


def _graph(doc: dict, shared: dict) -> ContextGraph:
    entities = [
        EntityNode(
            _text(spec, "name", where),
            _text(spec, "category", where, "organization"),
        )
        for where, spec in _entries(doc, "entities", "entity", "name")
    ]
    attributes = [
        _build(
            where,
            AttributeNode,
            _text(spec, "name", where),
            temporality=_text(spec, "temporality", where, "dynamic"),
            derivation=_text(spec, "derivation", where, "direct"),
            delay=_count(spec, "delay", where),
        )
        for where, spec in _entries(doc, "attributes", "attribute", "name")
    ]
    relations = [
        _build(
            where,
            EntityRelation,
            _text(spec, "source", where),
            _text(spec, "target", where),
            _text(spec, "cardinality", where, "one-one"),
        )
        for where, spec in _entries(doc, "relations", "relation", "source", "target")
    ]
    rules = []
    for where, spec in _entries(doc, "dependency_rules", "dependency rule",
                                "if", "then"):
        antecedent = _pairs(_list(spec, "if", where), where)
        (consequent,) = _pairs([spec["then"]], where)
        rules.append(
            _build(
                where,
                DependencyRule,
                kind=_text(spec, "kind", where, "partial"),
                antecedent=tuple(RulePattern(a, v) for a, v in antecedent),
                consequent=RulePattern(*consequent),
            )
        )
    # Nodes of equal shape share its parts, which the runner compares.
    nodes = [
        StateNodeDef(_text(spec, "id", where), *_once(shared, (
            tuple(_distinct_texts(spec, "parameters", where, "parameter")),
            tuple(_distinct_texts(spec, "attributes", where, "attribute")),
            _composition(spec["composition"], where) if "composition" in spec else None,
        ), _shape))
        for where, spec in _entries(doc, "state_nodes", "state node", "id")
    ]
    # The graph files each kind by name, where a repeat would replace the
    # entry before it.
    graph = ContextGraph.build(
        _unique(entities, "entity", "name"),
        _unique(attributes, "attribute", "name"),
        relations,
        rules,
        _unique(nodes, "state node", "id"),
    )
    findings = validate_graph(graph).findings
    if findings:
        raise LoadError("context graph has findings:\n" + "\n".join(
            "%s: %s" % (f.code, f.message) for f in findings
        ))
    # The net gives a parameter's entity a step that hands out its
    # attributes, which needs at least one.
    described = {attribute.entity for attribute in attributes}
    for i, node in enumerate(nodes):
        for parameter in node.parameters:
            if parameter not in described:
                raise _error(
                    "state node %d" % i,
                    "parameter %r names an entity with no attributes" % (parameter,),
                )
    return graph


# -- fragment repository -----------------------------------------------------


def load_repository(document: dict, shared: Optional[dict] = None) -> FragmentRepository:
    """Build a repository from its parsed document, validating invariants.

    A malformed entry raises ``LoadError`` naming it by its position in its
    list, counted from 0: ``fragment 0``, ``fragment 0 activity 1``,
    ``sub-goal 2``, ``sub-goal 2 entry 0``. ``shared`` holds a load's
    tables (``_once``).
    """
    shared = defaultdict(dict) if shared is None else shared
    if not isinstance(document, dict):
        raise LoadError("repository document must be a mapping")

    fragments = {}
    for where, spec in _entries(document, "fragments", "fragment", "id",
                                "activities"):
        activities = [
            FragmentActivity(
                name=_text(a, "name", at),
                sub_goal=_subgoal_key(a, at, ""),
                role=_text(a, "role", at),
                medium=_text(a, "medium", at),
            )
            for at, a in _entries(spec, "activities", "activity", "name",
                                  where=where)
        ]
        frag = _build(
            where, ProcessFragment, _text(spec, "id", where), tuple(activities)
        )
        if frag.id in fragments:
            raise _error(where, "duplicate fragment id %r" % (frag.id,))
        fragments[frag.id] = frag

    subgoals = []
    keys = []  # each sub-goal's normalized row patterns, for the repository
    for where, spec in _entries(document, "subgoals", "sub-goal", "name"):
        rows = []
        seen = {}  # each row's normalized pattern, in row order: none repeats
        used = set()
        for at, row in _entries(spec, "entries", "entry", "value", "fragment",
                                where=where):
            pattern, normalized = _pattern(row, "value", at, shared)
            fragment_id = _text(row, "fragment", at)
            if normalized in seen:
                raise _error(at, "duplicate value pattern")
            if fragment_id not in fragments:
                raise _error(at, "unknown fragment %r" % (fragment_id,))
            if fragment_id in used:
                raise _error(at, "fragment %r is mapped twice" % (fragment_id,))
            seen[normalized] = None
            used.add(fragment_id)
            rows.append((pattern, fragment_id))
        index = spec.get("index", len(subgoals) + 1)
        if isinstance(index, bool) or not isinstance(index, int):
            raise _error(where, "index must be a whole number, not %r" % (index,))
        subgoals.append(
            SubgoalEntry(index=index, name=_text(spec, "name", where), rows=tuple(rows))
        )
        keys.append(tuple(seen))

    return FragmentRepository(tuple(subgoals), fragments, keys)


# -- process model -----------------------------------------------------------


def _activity(spec: dict, where: str, graph: ContextGraph,
              repo: FragmentRepository, shared: dict) -> ActivityNode:
    activity_id = _text(spec, "id", where)
    sub_goal = _subgoal_key(spec, where, spec["id"])
    role = _text(spec, "role", where)
    medium = _text(spec, "medium", where)
    output_data = frozenset(_texts(spec, "output_data", where))
    duration = _count(spec, "duration", where)
    state = graph.state_nodes.get(activity_id)
    scope = None
    if spec.get("scope") is not None:
        at = where + " scope"
        declared = _mapping(spec["scope"], at)
        scope = _once(shared, (
            frozenset(_texts(declared, "parameters", at)),
            frozenset(_texts(declared, "attributes", at)),
        ), ScopeFilter)
        if state is None:
            raise _error(where, "has a scope but no state node")
        for kind, named, mapped in (
            ("parameter", scope.relevant_parameters, state.parameters),
            ("attribute", scope.relevant_attributes, state.attributes),
        ):
            unmapped = sorted(named.difference(mapped))
            if unmapped:
                raise _error(where, "scope %s %r is not mapped by its state node"
                             % (kind, unmapped[0]))
    elif state is not None:
        # Default scope: exactly what the activity's state node maps.
        names = (frozenset(state.parameters), frozenset(state.attributes))
        scope = _once(shared, names, ScopeFilter)
    if scope is not None:
        # Only activities with a scope are evaluated, so only their
        # sub-goals are ever looked up.
        try:
            repo.subgoal(sub_goal)
        except UnknownSubgoalError:
            raise _error(
                where, "sub_goal %r names no repository sub-goal" % (sub_goal,)
            ) from None
    return ActivityNode(
        activity_id, sub_goal, role, medium, output_data, scope, duration
    )


def _rule(spec: dict, where: str, chain: ActivityChain,
          repo: FragmentRepository, shared: dict) -> Tuple[AdaptationRule, object]:
    activity_id = _text(spec, "activity", where)
    if activity_id not in chain:
        raise _error(where, "unknown activity %r" % (activity_id,))
    fragment_id = spec.get("fragment")
    if fragment_id is not None:
        fragment_id = _text(spec, "fragment", where)
        if fragment_id not in repo.fragments:
            raise _error(where, "unknown fragment %r" % (fragment_id,))
    at = where + " value"
    pattern, key = _pattern(_mapping(spec["value"], at, "pairs"), "pairs", at, shared)
    at = where + " action"
    action = _mapping(spec["action"], at, "kind")
    return _build(
        where,
        AdaptationRule,
        activity_id=activity_id,
        value_pattern=pattern,
        fragment_pattern=fragment_id,
        action=_build(
            at,
            Action,
            kind=_text(action, "kind", at),
            role=_text(action, "role", at),
            medium=_text(action, "medium", at),
            order=tuple(_texts(action, "order", at)),
            data=tuple(_texts(action, "data", at)),
        ),
    ), key


def _check_bound(chain: ActivityChain, graph: ContextGraph, bound) -> None:
    """Refuse a bound attribute that a scoped activity takes in through its
    parameter while the activity's state node does not map it.

    ``bound`` holds ``(where, context)`` pairs. The run would instantiate
    the activity's state with the attribute and fail: it has no blue link.
    """
    by_parameter: Dict[str, Dict[str, str]] = {}
    for where, ctx in bound:
        by_parameter.setdefault(ctx.parameter, {}).setdefault(ctx.qualified, where)
    for node in chain.nodes.values():
        if node.scope is None:
            continue
        mapped = graph.state_nodes[node.id].attributes
        for parameter in sorted(node.scope.relevant_parameters):
            for qualified, where in by_parameter.get(parameter, {}).items():
                if qualified not in mapped:
                    raise _error(where, (
                        "activity %r takes in attribute %r through parameter %r, "
                        "but its state node does not map it"
                    ) % (node.id, qualified, parameter))


def _model(doc: dict, graph: ContextGraph, repo: FragmentRepository,
           shared: dict) -> ProcessModel:
    ordered = _unique([
        _activity(spec, where, graph, repo, shared)
        for where, spec in _entries(doc, "activities", "activity", "id")
    ], "activity", "id")
    if not ordered:
        raise LoadError("declares no activities")
    chain = ActivityChain.from_nodes(ordered)

    ideal: Dict[str, AtomicContext] = {}
    bound = []
    for where, spec in _entries(doc, "ideal", "ideal entry", "parameter",
                                "attribute"):
        ctx = _context(spec, where, shared)
        if ctx.qualified not in graph.attributes:
            raise _error(where, "unknown attribute %r" % (ctx.qualified,))
        ideal[ctx.qualified] = ctx
        bound.append((where, ctx))
    _check_bound(chain, graph, bound)

    rules = [
        _rule(spec, where, chain, repo, shared)
        for where, spec in _entries(doc, "rules", "rule", "activity", "value",
                                    "action")
    ]
    return ProcessModel(graph, chain, repo, tuple(rule for rule, _ in rules), ideal,
                        [key for _, key in rules])


# -- scenario ----------------------------------------------------------------


# A situation, and its contexts as the scenario lists them.
ListedSituation = Tuple[ContextualSituation, List[AtomicContext]]


def _scenario(doc: dict, shared: dict) -> List[ListedSituation]:
    situations: List[ListedSituation] = []
    for where, spec in _entries(doc, "situations", "situation", "time"):
        contexts = [
            _context(c, at, shared)
            for at, c in _entries(spec, "contexts", "context", "parameter",
                                  "attribute", where=where)
        ]
        try:
            cs = ContextualSituation.from_contexts(contexts, parse_time(spec["time"]))
        except LoadError as exc:
            raise _error(where, str(exc)) from None
        for ctx in cs.bindings.values():
            if ctx.temporality == "static":
                raise _error(where, "static context %r cannot appear in a change set"
                             % (ctx.qualified,))
        if situations and cs.timestamp < situations[-1][0].timestamp:
            raise _error(where, "time goes back: scenario times must be monotone")
        situations.append((cs, contexts))
    return situations


def load_scenario(path) -> List[ListedSituation]:
    """Each situation of the scenario at ``path``, paired with its contexts
    as the document lists them.

    A situation binds one context per qualified attribute, the last one
    listed, while the list keeps every instance of an attribute.
    """
    return _load(path, "scenario", _scenario, defaultdict(dict))


def _model_scenario(doc: dict, model: ProcessModel,
                    shared: dict) -> List[ContextualSituation]:
    situations = [cs for cs, _ in _scenario(doc, shared)]
    first: Dict[int, tuple] = {}  # each shared context at its first place
    for i, cs in enumerate(situations):
        for ctx in cs.bindings.values():
            first.setdefault(id(ctx), ("situation %d" % i, ctx))
    _check_bound(model.chain, model.graph, first.values())
    return situations


@dataclass
class ProjectBundle:
    """All artifacts of one runnable model, loaded and cross-validated."""

    graph: ContextGraph
    model: ProcessModel
    scenario: List[ContextualSituation]


_PARTS = ("graph", "repository", "model", "scenario")


def _bundle_paths(doc: dict, base: Path) -> Dict[str, str]:
    _mapping(doc, "", *_PARTS)
    return {part: str(base / _text(doc, part)) for part in _PARTS}


@collector_paused
def load_bundle(path) -> ProjectBundle:
    """Load the bundle at ``path`` and the four documents it names.

    This is the one check that a bundle is well formed: a graph with
    findings, a model that does not fit its graph or repository, an ideal
    or a situation binding an attribute that a scoped activity takes in but
    cannot map, and any malformed entry are ``LoadError``s naming the file.
    The cyclic collector is paused for the call (see ``_gc.collector_paused``).
    """
    path = Path(path)
    paths = _load(path, "bundle", _bundle_paths, path.parent)
    shared: dict = defaultdict(dict)  # this load's tables (see ``_once``)
    graph = _load(paths["graph"], "context-graph", _graph, shared)
    repo = _load(paths["repository"], "fragment-repository",
                 lambda doc: load_repository(doc, shared))
    model = _load(paths["model"], "process-model", _model, graph, repo, shared)
    scenario = _load(paths["scenario"], "scenario", _model_scenario, model, shared)
    return ProjectBundle(graph, model, scenario)
