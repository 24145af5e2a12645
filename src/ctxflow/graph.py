"""Three-level context graph: structure, instantiation and value computation.

Level 1 holds state nodes (one per activity with a contextual event), level 2
entities and attributes with their relationships and dependency rules, level 3
the atomic and composite value slots. Evaluating a context state takes four
steps that pass plain values: ``instantiate`` checks the state's links and
returns the attributes it activates, ``assign_values`` binds observed values
to them, ``apply_dependencies`` runs the dependency rules to fixpoint over
those bindings, and ``compose_value`` applies the state node's composition
to yield the composite value handed back to the process layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from .context import AtomicContext, ContextState, Value, normalize_value
from .errors import (
    DependencyConflictError,
    DependencyCycleError,
    IncompleteBindingError,
    UnknownContextError,
    UnobservedAttributeError,
)


@dataclass(frozen=True)
class EntityNode:
    name: str
    category: str = "organization"


@dataclass(frozen=True)
class AttributeNode:
    """Level-2 attribute; ``name`` is qualified as ``Entity.Attribute``."""

    name: str
    temporality: str = "dynamic"  # steady | dynamic
    derivation: str = "direct"  # direct | derived
    delay: int = 0  # green-link delay in minutes; 0 means none

    def __post_init__(self):
        if self.temporality not in ("steady", "dynamic"):
            raise ValueError("attribute temporality must be steady or dynamic")
        if self.derivation not in ("direct", "derived"):
            raise ValueError("attribute derivation must be direct or derived")
        if self.delay < 0:
            raise ValueError("green-link delay must be >= 0")

    @property
    def entity(self) -> str:
        return self.name.split(".", 1)[0]


CARDINALITIES = ("one-one", "one-many", "many-one", "many-many")


@dataclass(frozen=True)
class EntityRelation:
    """Structural relationship between two entities; documentation only."""

    source: str
    target: str
    cardinality: str = "one-one"

    def __post_init__(self):
        if self.cardinality not in CARDINALITIES:
            raise ValueError("unknown cardinality %r" % (self.cardinality,))


@dataclass(frozen=True)
class RulePattern:
    attribute: str
    value: Value

    @cached_property
    def key(self):
        """The value normalized (``normalize_value``), as bindings compare it."""
        return normalize_value(self.value)


@dataclass(frozen=True)
class DependencyRule:
    """IF <antecedent contexts> THEN <consequent assignment>.

    Partial rules may overwrite a directly observed value; total rules are
    the sole source of their (derived) target attribute's value.
    """

    kind: str  # partial | total
    antecedent: Tuple[RulePattern, ...]
    consequent: RulePattern

    def __post_init__(self):
        if self.kind not in ("partial", "total"):
            raise ValueError("dependency rule kind must be partial or total")
        if not self.antecedent:
            raise ValueError("dependency rule needs at least one antecedent")


@dataclass(frozen=True)
class Composition:
    """AND/OR expression over attribute references (possibly nested)."""

    op: str  # AND | OR
    items: Tuple[Union[str, "Composition"], ...]

    def __post_init__(self):
        if self.op not in ("AND", "OR"):
            raise ValueError("composition operator must be AND or OR")

    @cached_property
    def attributes(self) -> Tuple[str, ...]:
        """The attribute references, nested ones flattened in order; a
        composition is fixed at load, so this is built once."""
        out = []
        for item in self.items:
            if isinstance(item, Composition):
                out.extend(item.attributes)
            else:
                out.append(item)
        return tuple(out)


@dataclass(frozen=True)
class StateNodeDef:
    """Level-1 state node: scope of one activity plus its value composition."""

    id: str
    parameters: Tuple[str, ...]
    attributes: Tuple[str, ...]
    composition: Optional[Composition] = None  # None: AND over ``attributes``

    def __post_init__(self):
        if self.composition is None:
            object.__setattr__(
                self, "composition", Composition("AND", tuple(self.attributes))
            )


@dataclass(slots=True)
class TimedValue:
    """A value, the delay (minutes) until it becomes effective, and the key
    of the context or rule pattern the value comes from."""

    value: Value
    delay: int
    key: object


@dataclass(slots=True)
class CompositeValue:
    """The observed value of a state node: (attribute, value) pairs under AND/OR."""

    op: str
    pairs: Tuple[Tuple[str, Value], ...]
    max_delay: int = 0

    def normalized(self):
        """The selection key: the op and the casefolded, normalized pairs."""
        return (
            self.op,
            frozenset(
                (attr.casefold(), normalize_value(value)) for attr, value in self.pairs
            ),
        )

    def render(self) -> str:
        joint = " %s " % self.op
        return "[%s]" % joint.join(
            "(%s, %s)" % (attr, value) for attr, value in self.pairs
        )


@dataclass(frozen=True)
class ContextGraph:
    """The graph's nodes by name, its relations and its dependency rules.

    ``rules_by_trigger`` maps the ``(attribute, key)`` of each dependency
    rule's first antecedent to the positions of the rules that start with
    it in ``dependency_rules``, ascending; it is built once, with the graph.
    ``state_shapes`` numbers the state nodes by shape; it is built on first
    use, since only a run reads it.
    """

    entities: Mapping[str, EntityNode]
    attributes: Mapping[str, AttributeNode]
    relations: Tuple[EntityRelation, ...] = ()
    dependency_rules: Tuple[DependencyRule, ...] = ()
    state_nodes: Mapping[str, StateNodeDef] = field(default_factory=dict)
    rules_by_trigger: Mapping[Tuple[str, object], Tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        positions: Dict[Tuple[str, object], list] = {}
        for i, rule in enumerate(self.dependency_rules):
            first = rule.antecedent[0]
            positions.setdefault((first.attribute, first.key), []).append(i)
        object.__setattr__(
            self, "rules_by_trigger",
            {trigger: tuple(found) for trigger, found in positions.items()},
        )

    @cached_property
    def state_shapes(self) -> Mapping[str, int]:
        """A small number for each state node, by id, shared by the nodes
        with equal parameters, attributes and composition: evaluating one
        state under any of them gives the same value."""
        numbers: Dict[tuple, int] = {}
        return {
            name: numbers.setdefault(
                (node.parameters, node.attributes, node.composition), len(numbers)
            )
            for name, node in self.state_nodes.items()
        }

    @classmethod
    def build(cls, entities, attributes, relations=(), dependency_rules=(),
              state_nodes=()):
        return cls(
            entities={e.name: e for e in entities},
            attributes={a.name: a for a in attributes},
            relations=tuple(relations),
            dependency_rules=tuple(dependency_rules),
            state_nodes={node.id: node for node in state_nodes},
        )


@dataclass(frozen=True)
class Finding:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: Tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self):
        return [f.code for f in self.findings]


def validate_graph(g: ContextGraph) -> ValidationReport:
    """Check every structural invariant; an empty report means well-formed."""
    findings = []

    names = {}
    for group, pool in (
        ("entity", g.entities),
        ("attribute", g.attributes),
        ("state", g.state_nodes),
    ):
        for name in pool:
            if name in names and names[name] != group:
                findings.append(Finding(
                    "node-overlap",
                    "%s node %r collides with a %s node" % (group, name, names[name]),
                ))
            names[name] = group

    for attr in g.attributes.values():
        if attr.entity not in g.entities:
            findings.append(Finding(
                "unknown-entity",
                "attribute %r belongs to undeclared entity %r"
                % (attr.name, attr.entity),
            ))

    for rel in g.relations:
        for end in (rel.source, rel.target):
            if end not in g.entities:
                findings.append(Finding(
                    "unknown-entity",
                    "relation endpoint %r is not a declared entity" % (end,),
                ))

    for rule in g.dependency_rules:
        for pat in rule.antecedent + (rule.consequent,):
            if pat.attribute not in g.attributes:
                findings.append(Finding(
                    "unknown-attribute",
                    "dependency rule references undeclared attribute %r"
                    % (pat.attribute,),
                ))
        target = g.attributes.get(rule.consequent.attribute)
        if rule.kind == "total" and target is not None and target.derivation != "derived":
            findings.append(Finding(
                "total-rule-target",
                "total rule targets direct attribute %r" % (target.name,),
            ))

    for node in g.state_nodes.values():
        for p in node.parameters:
            if p not in g.entities:
                findings.append(Finding(
                    "unknown-entity",
                    "state node %r maps parameter %r to no entity" % (node.id, p),
                ))
        for a in node.attributes:
            if a not in g.attributes:
                findings.append(Finding(
                    "unknown-attribute",
                    "state node %r maps attribute %r to no attribute node"
                    % (node.id, a),
                ))
            elif g.attributes[a].entity not in node.parameters:
                # A context binding the attribute names its entity, which
                # instantiate and the net's layer 1 both look up here.
                findings.append(Finding(
                    "attribute-entity",
                    "state node %r maps attribute %r but not its entity %r"
                    % (node.id, a, g.attributes[a].entity),
                ))
        for a in node.composition.attributes:
            if a not in node.attributes:
                findings.append(Finding(
                    "composition-scope",
                    "state node %r composes attribute %r outside its own links"
                    % (node.id, a),
                ))

    return ValidationReport(tuple(findings))


def instantiate(
    g: ContextGraph, activity_id: str, s: ContextState
) -> Optional[FrozenSet[str]]:
    """The attributes ``s`` activates under the state node of
    ``activity_id``: the blue-link image of its attributes, or None for an
    empty state. Every parameter and attribute must have its link."""
    if s.is_empty:
        return None

    node = g.state_nodes.get(activity_id)
    if node is None:
        raise UnknownContextError("no state node for activity %r" % (activity_id,))
    for p in s.parameters:
        if p not in node.parameters or p not in g.entities:
            raise UnknownContextError(
                "parameter %r of state %r has no red link" % (p, activity_id)
            )
    for a in s.attributes:
        if a not in node.attributes or a not in g.attributes:
            raise UnknownContextError(
                "attribute %r of state %r has no blue link" % (a, activity_id)
            )
    return frozenset(s.attributes)


def assign_values(
    g: ContextGraph, activated: FrozenSet[str], bindings: Mapping[str, AtomicContext]
) -> Dict[str, TimedValue]:
    """Bind the observed contexts ``bindings`` to the activated direct attributes.

    Each value picks up its attribute's green-link delay and its context's
    key. Derived attributes stay unbound until dependency evaluation.
    """
    bound = {}
    for name in sorted(activated):
        attr = g.attributes[name]
        if attr.derivation != "direct":
            continue
        if name not in bindings:
            raise UnobservedAttributeError(
                "direct attribute %r has no observation" % (name,)
            )
        ctx = bindings[name]
        bound[name] = TimedValue(ctx.value, attr.delay, ctx.key)
    return bound


def apply_dependencies(
    bound: Mapping[str, TimedValue],
    activated: FrozenSet[str],
    g: ContextGraph,
) -> Dict[str, TimedValue]:
    """Fire ``g``'s dependency rules pass-by-pass until the bindings
    stabilise, and return the bindings they reach; ``bound`` is left as it is.

    Each pass looks up every binding's ``(attribute, key)`` in
    ``g.rules_by_trigger``, built once with the graph, and takes the rules
    it finds in rule order; only those whose target is activated and whose
    every antecedent holds by ``==`` fire, so the lookup only narrows. A
    pass applies all its writes at once, which makes the fixpoint
    independent of rule ordering, and a pass that writes nothing ends the
    call. Two rules producing different values for one attribute in the
    same pass is a conflict, not a silent choice. Values compare by their
    keys. The cap counts every rule, whatever its target.
    """
    bound = dict(bound)
    by_trigger = g.rules_by_trigger
    if not by_trigger:
        return bound  # a graph without dependency rules derives nothing
    rules = g.dependency_rules
    cap = len(rules) * max(len(activated), 1) + 1
    for _ in range(cap):
        hits = []
        for attr, held in bound.items():
            hits += by_trigger.get((attr, held.key), ())
        hits.sort()
        proposals = {}
        for i in hits:
            rule = rules[i]
            target = rule.consequent.attribute
            if target not in activated or not all(
                p.attribute in bound and bound[p.attribute].key == p.key
                for p in rule.antecedent
            ):
                continue
            delay = max(bound[p.attribute].delay for p in rule.antecedent)
            value = TimedValue(rule.consequent.value, delay, rule.consequent.key)
            if target in proposals and proposals[target].key != value.key:
                raise DependencyConflictError(
                    "rules disagree on %r: %r vs %r"
                    % (target, proposals[target].value, value.value)
                )
            proposals[target] = value
        changed = False
        for target, value in proposals.items():
            prior = bound.get(target)
            if prior is None or prior.key != value.key:
                bound[target] = value
                changed = True
        if not changed:
            return bound
    raise DependencyCycleError(
        "dependency rules did not stabilise within %d passes" % (cap,)
    )


def compose_value(bound: Mapping[str, TimedValue], node: StateNodeDef) -> CompositeValue:
    """Evaluate the state node's composition over the bindings ``bound``."""
    comp = node.composition
    pairs = []
    max_delay = 0
    for attr in comp.attributes:
        value = bound.get(attr)
        if value is None:
            raise IncompleteBindingError(
                "attribute %r is unbound in composition of %r" % (attr, node.id)
            )
        pairs.append((attr, value.value))
        max_delay = max(max_delay, value.delay)
    return CompositeValue(comp.op, tuple(pairs), max_delay)


def composite_from_pairs(pairs, op: str = "AND") -> CompositeValue:
    """Build a composite value pattern from raw (attribute, value) pairs."""
    return CompositeValue(op, tuple((str(a), v) for a, v in pairs))
