"""Versioned YAML document formats for graphs, models, repositories, scenarios.

Every document starts with ``version: 1`` and a ``kind`` tag; loaders reject
unknown versions and mismatched kinds so that a bundle wired to the wrong
file fails fast with the offending path in the error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import yaml

from .chain import Action, ActivityChain, ActivityNode, AdaptationRule, ProcessModel
from .context import AtomicContext, ContextualSituation, ScopeFilter
from .errors import LoadError
from .fragments import FragmentRepository, load_repository
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
)

SUPPORTED_VERSION = 1

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


def format_time(minutes: int) -> str:
    return "%02d:%02d" % (minutes // 60, minutes % 60)


def load_document(path, kind: str) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError("cannot read %s: %s" % (path, exc), path=str(path))
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise LoadError("cannot parse %s: %s" % (path, exc), path=str(path))
    if not isinstance(doc, dict):
        raise LoadError("%s is not a mapping document" % (path,), path=str(path))
    if doc.get("version") != SUPPORTED_VERSION:
        raise LoadError(
            "%s has unsupported version %r" % (path, doc.get("version")),
            path=str(path),
        )
    if doc.get("kind") != kind:
        raise LoadError(
            "%s is a %r document, expected %r" % (path, doc.get("kind"), kind),
            path=str(path),
        )
    return doc


def _context_from_spec(spec: dict) -> AtomicContext:
    if not isinstance(spec, dict):
        raise LoadError("context entry %r is not a mapping" % (spec,))
    for key in ("parameter", "attribute"):
        if key in spec and not isinstance(spec[key], str):
            raise LoadError("bad context entry %r: %s must be text" % (spec, key))
    try:
        return AtomicContext(
            parameter=spec["parameter"],
            attribute=spec["attribute"],
            connector=spec.get("connector", "="),
            value=spec.get("value", ""),
            instance=spec.get("instance"),
            category=spec.get("category", "organization"),
            temporality=spec.get("temporality", "dynamic"),
        )
    except (KeyError, ValueError) as exc:
        raise LoadError("bad context entry %r: %s" % (spec, exc))


def _composition_from_spec(spec) -> Composition:
    if isinstance(spec, dict):
        return Composition(
            op=spec.get("op", "AND"),
            items=tuple(
                _composition_from_spec(i) if isinstance(i, dict) else str(i)
                for i in spec.get("items", ())
            ),
        )
    raise LoadError("bad composition %r" % (spec,))


def load_graph(path) -> ContextGraph:
    doc = load_document(path, "context-graph")
    try:
        entities = [
            EntityNode(e["name"], e.get("category", "organization"))
            for e in doc.get("entities", [])
        ]
        attributes = [
            AttributeNode(
                a["name"],
                temporality=a.get("temporality", "dynamic"),
                derivation=a.get("derivation", "direct"),
                delay=a.get("delay", 0),
            )
            for a in doc.get("attributes", [])
        ]
        relations = [
            EntityRelation(r["source"], r["target"], r.get("cardinality", "one-one"))
            for r in doc.get("relations", [])
        ]
        rules = [
            DependencyRule(
                kind=r.get("kind", "partial"),
                antecedent=tuple(RulePattern(a, v) for a, v in r["if"]),
                consequent=RulePattern(*r["then"]),
            )
            for r in doc.get("dependency_rules", [])
        ]
        nodes = [
            StateNodeDef(
                id=s["id"],
                parameters=tuple(s.get("parameters", ())),
                attributes=tuple(s.get("attributes", ())),
                composition=(
                    _composition_from_spec(s["composition"])
                    if "composition" in s
                    else None
                ),
            )
            for s in doc.get("state_nodes", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError("bad context-graph document %s: %s" % (path, exc),
                        path=str(path))
    return ContextGraph.build(entities, attributes, relations, rules, nodes)


def _pattern_from_spec(spec: dict):
    pairs = spec.get("pairs")
    if not pairs:
        raise LoadError("value pattern needs pairs: %r" % (spec,))
    return composite_from_pairs([(a, v) for a, v in pairs], spec.get("op", "AND"))


def _action_from_spec(spec: dict) -> Action:
    try:
        return Action(
            kind=spec["kind"],
            role=spec.get("role", ""),
            medium=spec.get("medium", ""),
            order=tuple(spec.get("order", ())),
            data=tuple(spec.get("data", ())),
        )
    except (KeyError, ValueError) as exc:
        raise LoadError("bad action %r: %s" % (spec, exc))


def load_model(path, graph: ContextGraph, repo: FragmentRepository) -> ProcessModel:
    doc = load_document(path, "process-model")
    ordered: List[ActivityNode] = []
    for spec in doc.get("activities", []):
        try:
            node = ActivityNode(
                id=spec["id"],
                sub_goal=spec.get("sub_goal", spec["id"]),
                role=spec.get("role", ""),
                medium=spec.get("medium", ""),
                output_data=set(spec.get("output_data", ())),
                duration=spec.get("duration", 0),
            )
        except KeyError as exc:
            raise LoadError("activity entry missing %s in %s" % (exc, path),
                            path=str(path))
        scope_spec = spec.get("scope")
        state = graph.state_nodes.get(node.id)
        if scope_spec is not None:
            node.scope = ScopeFilter(
                node.id,
                frozenset(scope_spec.get("parameters", ())),
                frozenset(scope_spec.get("attributes", ())),
            )
        elif state is not None:
            # Default scope: exactly what the activity's state node maps.
            node.scope = ScopeFilter(
                node.id, frozenset(state.parameters), frozenset(state.attributes)
            )
        ordered.append(node)
    if not ordered:
        raise LoadError("model %s declares no activities" % (path,), path=str(path))
    chain = ActivityChain.from_nodes(ordered)

    ideal: Dict[str, AtomicContext] = {}
    for index, spec in enumerate(doc.get("ideal", [])):
        try:
            ctx = _context_from_spec(spec)
        except LoadError as exc:
            raise LoadError(
                "%s: ideal entry %d: %s" % (path, index, exc), path=str(path)
            ) from None
        ideal[ctx.qualified] = ctx

    rules = []
    for order, spec in enumerate(doc.get("rules", [])):
        fragment_id = spec.get("fragment")
        if fragment_id is not None and fragment_id not in repo.fragments:
            raise LoadError(
                "rule references unknown fragment %r" % (fragment_id,),
                path=str(path),
                code_hint="unknown-fragment",
            )
        try:
            rules.append(
                AdaptationRule(
                    activity_id=spec["activity"],
                    value_pattern=_pattern_from_spec(spec["value"]),
                    fragment_pattern=fragment_id,
                    action=_action_from_spec(spec["action"]),
                    declaration_order=order,
                )
            )
        except (KeyError, ValueError) as exc:
            raise LoadError("bad rule entry %r: %s" % (spec, exc), path=str(path))

    model = ProcessModel(graph, chain, repo, tuple(rules), ideal)
    model.validate()
    return model


def load_fragments(path) -> FragmentRepository:
    doc = load_document(path, "fragment-repository")
    try:
        return load_repository(doc)
    except LoadError as exc:
        raise LoadError("%s: %s" % (path, exc), path=str(path)) from None


def _situation_from_spec(spec) -> ContextualSituation:
    if not isinstance(spec, dict):
        raise LoadError("not a mapping: %r" % (spec,))
    if "time" not in spec:
        raise LoadError("missing time")
    specs = spec.get("contexts", [])
    if not isinstance(specs, list):
        raise LoadError("contexts must be a list, not %r" % (specs,))
    contexts = [_context_from_spec(c) for c in specs]
    try:
        return ContextualSituation.from_contexts(contexts, parse_time(spec["time"]))
    except ValueError as exc:
        raise LoadError(str(exc)) from None


def load_scenario(path) -> List[ContextualSituation]:
    doc = load_document(path, "scenario")
    specs = doc.get("situations", [])
    if not isinstance(specs, list):
        raise LoadError("%s: situations must be a list" % (path,), path=str(path))
    situations = []
    for index, spec in enumerate(specs):
        try:
            situations.append(_situation_from_spec(spec))
        except LoadError as exc:
            raise LoadError(
                "%s: situation %d: %s" % (path, index, exc), path=str(path)
            ) from None
    for i in range(1, len(situations)):
        if situations[i].timestamp < situations[i - 1].timestamp:
            raise LoadError(
                "scenario timestamps must be monotone in %s" % (path,),
                path=str(path),
            )
    return situations


@dataclass
class ProjectBundle:
    """All artifacts of one runnable model, loaded and cross-validated."""

    graph: ContextGraph
    model: ProcessModel
    repo: FragmentRepository
    scenario: List[ContextualSituation]
    paths: Dict[str, str]


def load_bundle(path) -> ProjectBundle:
    path = Path(path)
    doc = load_document(path, "bundle")
    base = path.parent
    try:
        paths = {
            "graph": str(base / doc["graph"]),
            "repository": str(base / doc["repository"]),
            "model": str(base / doc["model"]),
            "scenario": str(base / doc["scenario"]),
        }
    except KeyError as exc:
        raise LoadError("bundle %s is missing the %s entry" % (path, exc),
                        path=str(path))
    graph = load_graph(paths["graph"])
    repo = load_fragments(paths["repository"])
    model = load_model(paths["model"], graph, repo)
    scenario = load_scenario(paths["scenario"])
    return ProjectBundle(graph, model, repo, scenario, paths)
