"""Versioned YAML document formats for graphs, models, repositories, scenarios.

Every document starts with ``version: 1`` and a ``kind`` tag; loaders reject
unknown versions and mismatched kinds so that a bundle wired to the wrong
file fails fast with the offending path in the error. Every schema lives
here, checked with one set of entry helpers: a malformed entry is a
``LoadError`` of the form ``<file>: <entry> N: <problem>``, where an entry
listed inside another names both places (``situation 0 context 3``). The
checks raise the bare problem; one walker, ``_each``, builds every listed
entry and names the one that fails, so a place is written only for an error.
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
    CompositeValue,
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
# A check raises the bare problem. ``_each`` and ``_at`` write the place in
# front of it: ``<noun> N`` for an entry, counted from 0 in its list (``rule
# 1``, ``sub-goal 2 entry 0``), or a field's name (``rule 1 action``);
# ``_load`` puts the file in front of that.


class _Placed(LoadError):
    """A problem whose message starts with its place."""


def _placed(place: str, exc: Exception) -> _Placed:
    """``exc``, a ``LoadError`` or a constructor's ``ValueError``, with
    ``place`` in front of any place it names."""
    return _Placed("%s%s%s" % (place, " " if isinstance(exc, _Placed) else ": ", exc))


def _each(spec: dict, key: str, noun: str, build, *required) -> list:
    """``build(entry)`` for each entry listed under ``key``, a mapping
    holding ``required``; a failing entry is placed as ``<noun> N``."""
    built = []
    for i, entry in enumerate(_list(spec, key)):
        try:
            built.append(build(_mapping(entry, *required)))
        except (LoadError, ValueError) as exc:
            raise _placed("%s %d" % (noun, i), exc) from None
    return built


def _at(place: str, build, *args):
    """``build(*args)``, its failure placed at ``place``."""
    try:
        return build(*args)
    except (LoadError, ValueError) as exc:
        raise _placed(place, exc) from None


def _mapping(spec, *keys) -> dict:
    """``spec`` if it is a mapping holding ``keys``, else a ``LoadError``."""
    if not isinstance(spec, dict):
        raise LoadError("not a mapping: %r" % (spec,))
    for key in keys:
        if key not in spec:
            raise LoadError("missing %s" % (key,))
    return spec


def _list(spec: dict, key: str) -> list:
    items = spec.get(key, [])
    if not isinstance(items, list):
        raise LoadError("%s must be a list, not %r" % (key, items))
    return items


def _text(spec: dict, key: str, default: str = "") -> str:
    value = spec.get(key, default)
    if not isinstance(value, str):
        raise LoadError("%s must be text, not %r" % (key, value))
    return value


def _texts(spec: dict, key: str) -> list:
    items = _list(spec, key)
    for item in items:
        if not isinstance(item, str):
            raise LoadError("%s must list text, not %r" % (key, item))
    return items


def _distinct_texts(spec: dict, key: str, noun: str) -> list:
    """``_texts``, unless one item repeats an earlier one."""
    items = _texts(spec, key)
    seen = set()
    for item in items:
        if item in seen:
            raise LoadError("duplicate %s %r" % (noun, item))
        seen.add(item)
    return items


def _count(spec: dict, key: str) -> int:
    value = spec.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise LoadError("%s must be a whole number >= 0, not %r" % (key, value))
    return value


def _subgoal_key(spec: dict, default):
    """A sub-goal reference: its name, or its index in the repository."""
    value = spec.get("sub_goal", default)
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise LoadError("sub_goal must be text or an index, not %r" % (value,))
    return value


def _pairs(items: list) -> list:
    """``[attribute, value]`` pairs: text and a text, number or truth value."""
    for item in items:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and is_value(item[1])
        ):
            raise LoadError("not an [attribute, value] pair: %r" % (item,))
    return [tuple(item) for item in items]


def _unique(items: list, entry: str, field: str) -> list:
    """``items``, unless one repeats an earlier one's ``field``."""
    seen = set()
    for i, item in enumerate(items):
        value = getattr(item, field)
        if value in seen:
            raise LoadError("%s %d: duplicate %s %r" % (entry, i, field, value))
        seen.add(value)
    return items


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


def _context(spec: dict, shared: dict) -> AtomicContext:
    """The context ``spec``, a mapping holding its parameter and attribute."""
    key = (*spec, *spec.values(), *_typed(spec.get("value")))
    return _once(shared, key, _new_context, spec)


def _new_context(spec: dict) -> AtomicContext:
    parameter = _text(spec, "parameter")
    attribute = _text(spec, "attribute")
    connector = _text(spec, "connector", "=")
    instance = _text(spec, "instance") if "instance" in spec else None
    category = _text(spec, "category", "organization")
    temporality = _text(spec, "temporality", "dynamic")
    value = spec.get("value", "")
    if not is_value(value):
        raise LoadError("value must be text, a number or a truth value, not %r"
                        % (value,))
    return AtomicContext(parameter, attribute, connector, value, instance, category,
                         temporality)


def _pattern(spec, field: str, shared: dict) -> CompositeValue:
    """The pattern of the pairs under ``spec[field]`` and ``op``."""
    pairs = _pairs(_list(_mapping(spec, field), field))
    op = _text(spec, "op", "AND")
    key = (op, *pairs, *[_typed(value) for _, value in pairs])
    return _once(shared, key, composite_from_pairs, pairs, op)


# -- context graph -----------------------------------------------------------


def _composition(spec, enclosing=()) -> Composition:
    """The composition ``spec`` of a state node; its own problems, nested
    ones too, are placed at ``composition``.

    ``enclosing`` holds the compositions around ``spec``: an alias can make
    one contain itself, which would otherwise recurse without end.
    """
    if any(spec is outer for outer in enclosing):
        raise LoadError("composition refers to itself")
    items = tuple(
        item if isinstance(item, str) else _composition(item, enclosing + (spec,))
        for item in _at("composition", lambda: _list(_mapping(spec), "items"))
    )
    return _at("composition", lambda: Composition(_text(spec, "op", "AND"), items))


def _shape(parameters: tuple, attributes: tuple, composition) -> tuple:
    """A state node's parts; the composition defaults to AND over its attributes."""
    return parameters, attributes, composition or Composition("AND", attributes)


def _dependency_rule(spec: dict) -> DependencyRule:
    antecedent = _pairs(_list(spec, "if"))
    (consequent,) = _pairs([spec["then"]])
    return DependencyRule(
        kind=_text(spec, "kind", "partial"),
        antecedent=tuple(RulePattern(a, v) for a, v in antecedent),
        consequent=RulePattern(*consequent),
    )


def _graph(doc: dict, shared: dict) -> ContextGraph:
    entities = _each(doc, "entities", "entity", lambda spec: EntityNode(
        _text(spec, "name"), _text(spec, "category", "organization"),
    ), "name")
    attributes = _each(doc, "attributes", "attribute", lambda spec: AttributeNode(
        _text(spec, "name"),
        temporality=_text(spec, "temporality", "dynamic"),
        derivation=_text(spec, "derivation", "direct"),
        delay=_count(spec, "delay"),
    ), "name")
    relations = _each(doc, "relations", "relation", lambda spec: EntityRelation(
        _text(spec, "source"),
        _text(spec, "target"),
        _text(spec, "cardinality", "one-one"),
    ), "source", "target")
    rules = _each(doc, "dependency_rules", "dependency rule", _dependency_rule,
                  "if", "then")
    # Nodes of equal shape share its parts, which the runner compares.
    nodes = _each(doc, "state_nodes", "state node", lambda spec: StateNodeDef(
        _text(spec, "id"), *_once(shared, (
            tuple(_distinct_texts(spec, "parameters", "parameter")),
            tuple(_distinct_texts(spec, "attributes", "attribute")),
            _composition(spec["composition"]) if "composition" in spec else None,
        ), _shape),
    ), "id")
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
                raise LoadError(
                    "state node %d: parameter %r names an entity with no attributes"
                    % (i, parameter)
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

    def fragment(spec: dict) -> None:
        activities = _each(spec, "activities", "activity", lambda a: FragmentActivity(
            name=_text(a, "name"),
            sub_goal=_subgoal_key(a, ""),
            role=_text(a, "role"),
            medium=_text(a, "medium"),
        ), "name")
        frag = ProcessFragment(_text(spec, "id"), tuple(activities))
        if frag.id in fragments:
            raise LoadError("duplicate fragment id %r" % (frag.id,))
        fragments[frag.id] = frag

    subgoals = []

    def subgoal(spec: dict) -> None:
        rows = {}  # each row's pattern key -> the row, in row order: none repeats
        used = set()

        def row(spec: dict) -> None:
            pattern = _pattern(spec, "value", shared)
            fragment_id = _text(spec, "fragment")
            if pattern.key in rows:
                raise LoadError("duplicate value pattern")
            if fragment_id not in fragments:
                raise LoadError("unknown fragment %r" % (fragment_id,))
            if fragment_id in used:
                raise LoadError("fragment %r is mapped twice" % (fragment_id,))
            rows[pattern.key] = (pattern, fragment_id)
            used.add(fragment_id)

        _each(spec, "entries", "entry", row, "value", "fragment")
        index = spec.get("index", len(subgoals) + 1)
        if isinstance(index, bool) or not isinstance(index, int):
            raise LoadError("index must be a whole number, not %r" % (index,))
        subgoals.append(SubgoalEntry(index, _text(spec, "name"), tuple(rows.values())))

    _each(document, "fragments", "fragment", fragment, "id", "activities")
    _each(document, "subgoals", "sub-goal", subgoal, "name")
    return FragmentRepository(tuple(subgoals), fragments)


# -- process model -----------------------------------------------------------


def _scope(spec, shared: dict) -> ScopeFilter:
    spec = _mapping(spec)
    return _once(shared, (
        frozenset(_texts(spec, "parameters")),
        frozenset(_texts(spec, "attributes")),
    ), ScopeFilter)


def _activity(spec: dict, graph: ContextGraph, repo: FragmentRepository,
              shared: dict) -> ActivityNode:
    activity_id = _text(spec, "id")
    sub_goal = _subgoal_key(spec, spec["id"])
    role = _text(spec, "role")
    medium = _text(spec, "medium")
    output_data = frozenset(_texts(spec, "output_data"))
    duration = _count(spec, "duration")
    state = graph.state_nodes.get(activity_id)
    scope = None
    if spec.get("scope") is not None:
        scope = _at("scope", _scope, spec["scope"], shared)
        if state is None:
            raise LoadError("has a scope but no state node")
        for kind, named, mapped in (
            ("parameter", scope.relevant_parameters, state.parameters),
            ("attribute", scope.relevant_attributes, state.attributes),
        ):
            unmapped = sorted(named.difference(mapped))
            if unmapped:
                raise LoadError("scope %s %r is not mapped by its state node"
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
            raise LoadError(
                "sub_goal %r names no repository sub-goal" % (sub_goal,)
            ) from None
    return ActivityNode(
        activity_id, sub_goal, role, medium, output_data, scope, duration
    )


def _action(spec) -> Action:
    spec = _mapping(spec, "kind")
    return Action(
        kind=_text(spec, "kind"),
        role=_text(spec, "role"),
        medium=_text(spec, "medium"),
        order=tuple(_texts(spec, "order")),
        data=tuple(_texts(spec, "data")),
    )


def _rule(spec: dict, chain: ActivityChain, repo: FragmentRepository,
          shared: dict) -> AdaptationRule:
    activity_id = _text(spec, "activity")
    if activity_id not in chain:
        raise LoadError("unknown activity %r" % (activity_id,))
    fragment_id = spec.get("fragment")
    if fragment_id is not None:
        fragment_id = _text(spec, "fragment")
        if fragment_id not in repo.fragments:
            raise LoadError("unknown fragment %r" % (fragment_id,))
    return AdaptationRule(
        activity_id=activity_id,
        value_pattern=_at("value", _pattern, spec["value"], "pairs", shared),
        fragment_pattern=fragment_id,
        action=_at("action", _action, spec["action"]),
    )


def _check_bound(chain: ActivityChain, graph: ContextGraph, noun: str,
                 bound) -> None:
    """Refuse a bound attribute that a scoped activity takes in through its
    parameter while the activity's state node does not map it.

    ``bound`` holds ``(index, context)`` pairs, a refused one placed as
    ``<noun> <index>``. The run would instantiate the activity's state with
    the attribute and fail: it has no blue link.
    """
    by_parameter: Dict[str, Dict[str, int]] = {}
    for index, ctx in bound:
        by_parameter.setdefault(ctx.parameter, {}).setdefault(ctx.qualified, index)
    for node in chain.nodes.values():
        if node.scope is None:
            continue
        mapped = graph.state_nodes[node.id].attributes
        for parameter in sorted(node.scope.relevant_parameters):
            for qualified, index in by_parameter.get(parameter, {}).items():
                if qualified not in mapped:
                    raise LoadError((
                        "%s %d: activity %r takes in attribute %r through "
                        "parameter %r, but its state node does not map it"
                    ) % (noun, index, node.id, qualified, parameter))


def _model(doc: dict, graph: ContextGraph, repo: FragmentRepository,
           shared: dict) -> ProcessModel:
    ordered = _unique(_each(
        doc, "activities", "activity",
        lambda spec: _activity(spec, graph, repo, shared), "id",
    ), "activity", "id")
    if not ordered:
        raise LoadError("declares no activities")
    chain = ActivityChain.from_nodes(ordered)

    def ideal_entry(spec: dict) -> AtomicContext:
        ctx = _context(spec, shared)
        if ctx.qualified not in graph.attributes:
            raise LoadError("unknown attribute %r" % (ctx.qualified,))
        return ctx

    bound = _each(doc, "ideal", "ideal entry", ideal_entry, "parameter", "attribute")
    _check_bound(chain, graph, "ideal entry", enumerate(bound))
    ideal: Dict[str, AtomicContext] = {ctx.qualified: ctx for ctx in bound}

    rules = _each(doc, "rules", "rule", lambda spec: _rule(spec, chain, repo, shared),
                  "activity", "value", "action")
    return ProcessModel(graph, chain, repo, tuple(rules), ideal)


# -- scenario ----------------------------------------------------------------


# A situation, and its contexts as the scenario lists them.
ListedSituation = Tuple[ContextualSituation, List[AtomicContext]]


def _scenario(doc: dict, shared: dict) -> List[ListedSituation]:
    situations: List[ListedSituation] = []

    def situation(spec: dict) -> None:
        contexts = _each(spec, "contexts", "context",
                         lambda c: _context(c, shared), "parameter", "attribute")
        cs = ContextualSituation.from_contexts(contexts, parse_time(spec["time"]))
        for ctx in cs.bindings.values():
            if ctx.temporality == "static":
                raise LoadError("static context %r cannot appear in a change set"
                                % (ctx.qualified,))
        if situations and cs.timestamp < situations[-1][0].timestamp:
            raise LoadError("time goes back: scenario times must be monotone")
        situations.append((cs, contexts))

    _each(doc, "situations", "situation", situation, "time")
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
            first.setdefault(id(ctx), (i, ctx))
    _check_bound(model.chain, model.graph, "situation", first.values())
    return situations


@dataclass
class ProjectBundle:
    """All artifacts of one runnable model, loaded and cross-validated."""

    graph: ContextGraph
    model: ProcessModel
    scenario: List[ContextualSituation]


_PARTS = ("graph", "repository", "model", "scenario")


def _bundle_paths(doc: dict, base: Path) -> Dict[str, str]:
    _mapping(doc, *_PARTS)
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
