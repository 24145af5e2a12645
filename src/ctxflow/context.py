"""Context algebra: atomic contexts, situations, per-scope states and diffing.

The central operation is :func:`diff`, which compares an incoming contextual
situation against a scope's last observed state and produces the change
set (new parameters, changed attributes) that drives adaptation downstream.
All values here are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Tuple, Union

Value = Union[str, int, float, bool]

CONNECTORS = ("=", ">", "<", ">=", "<=", "!=", "In", "At", "near", "from")
CATEGORIES = ("organization", "role", "external")
TEMPORALITIES = ("static", "steady", "dynamic")


def normalize_value(value: Value):
    """Canonical form used for change detection and pattern matching.

    Text compares case-insensitively (and ignores surrounding blanks),
    numbers compare numerically, booleans stand on their own.
    """
    if isinstance(value, bool):
        # Tagged so that True does not collide with the number 1.
        return ("bool", value)
    if isinstance(value, str):
        return value.strip().casefold()
    if isinstance(value, (int, float)):
        return float(value)
    return value


def values_equal(a: Value, b: Value) -> bool:
    return normalize_value(a) == normalize_value(b)


@dataclass(frozen=True)
class AtomicContext:
    """One environmental fact: parameter, attribute, connector and value.

    ``instance`` distinguishes concrete occurrences of a parameter (for
    example two network operators providing the same ``Network`` parameter).
    """

    parameter: str
    attribute: str
    connector: str = "="
    value: Value = ""
    instance: Optional[str] = None
    category: str = "organization"
    temporality: str = "dynamic"

    def __post_init__(self):
        if not self.parameter:
            raise ValueError("context parameter must be nonempty")
        if not self.attribute:
            raise ValueError("context attribute must be nonempty")
        if self.connector not in CONNECTORS:
            raise ValueError("unknown connector %r" % (self.connector,))
        if self.category not in CATEGORIES:
            raise ValueError("unknown category %r" % (self.category,))
        if self.temporality not in TEMPORALITIES:
            raise ValueError("unknown temporality %r" % (self.temporality,))

    @cached_property
    def qualified(self) -> str:
        """Qualified attribute name, e.g. ``Weather.Status``."""
        return "%s.%s" % (self.parameter, self.attribute)

    @cached_property
    def key(self):
        """The value normalized (``normalize_value``), as diffs compare it."""
        return normalize_value(self.value)


@dataclass(frozen=True)
class ContextualSituation:
    """The change set affecting the whole process since the last observation.

    ``parameters`` lists the parameters involved in the change,
    ``attributes`` the qualified attributes that were added or whose values
    changed, and ``bindings`` maps each qualified attribute to its current
    atomic context.
    """

    parameters: Tuple[str, ...]
    attributes: Tuple[str, ...]
    timestamp: int
    bindings: Mapping[str, AtomicContext] = field(default_factory=dict)

    @classmethod
    def from_contexts(cls, contexts, timestamp: int) -> "ContextualSituation":
        """Package a plain list of atomic contexts as a situation; a repeated
        attribute is named at its first listing and bound to its last."""
        params = {}  # insertion-ordered sets
        attrs = {}
        bindings = {}
        for ctx in contexts:
            params[ctx.parameter] = None
            q = ctx.qualified
            attrs[q] = None
            bindings[q] = ctx
        return cls(tuple(params), tuple(attrs), timestamp, bindings)

    @property
    def is_empty(self) -> bool:
        return not self.parameters and not self.attributes


@dataclass(frozen=True)
class ContextState(ContextualSituation):
    """The restriction of a situation to one scope, plus removal annotation.

    A state belongs to its scope, not to an activity: every activity with
    that scope catches the same situations, so they share one state, and
    the activity being evaluated is named where the state is instantiated.
    ``removed_parameters`` records parameters that were present in the
    previous state but are absent from the latest situation; they do not
    enter ``parameters`` and never trigger adaptation by themselves.
    """

    removed_parameters: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ScopeFilter:
    """The parameters/attributes a single activity is declared to care about."""

    relevant_parameters: frozenset
    relevant_attributes: frozenset

    def covers(self, ctx: AtomicContext) -> bool:
        return (
            ctx.parameter in self.relevant_parameters
            or ctx.qualified in self.relevant_attributes
        )

    def restrict(self, cs: ContextualSituation) -> ContextualSituation:
        """Drop every context of ``cs`` outside this scope."""
        bindings = cs.bindings
        kept = []
        for q in cs.attributes:
            ctx = bindings.get(q)
            if ctx is not None and self.covers(ctx):
                kept.append(ctx)
        return ContextualSituation.from_contexts(kept, cs.timestamp)


def diff(new: ContextualSituation, old: ContextState) -> ContextState:
    """Compute the contextual change made in ``old`` by ``new``.

    Returns ``old`` itself (bit-identically) when ``new`` is not newer or no
    parameter/attribute change is detected. Otherwise the result lists the
    newly added parameters, the attributes whose bound values changed (for
    parameters already known), and the owners of those attributes. Parameters
    dropped since the previous state land in ``removed_parameters`` only.
    """
    if new.timestamp <= old.timestamp:
        return old

    old_params = set(old.parameters)
    old_params.update(ctx.parameter for ctx in old.bindings.values())

    added_params = []
    changed_attrs = []
    for q in new.attributes:
        ctx = new.bindings[q]
        if ctx.parameter not in old_params:
            if ctx.parameter not in added_params:
                added_params.append(ctx.parameter)
        else:
            prior = old.bindings.get(q)
            if prior is None or prior.key != ctx.key:
                changed_attrs.append(q)

    if not added_params and not changed_attrs:
        return old

    # Each attribute's parameter comes from its bound context: a parameter
    # name may itself contain a dot.
    owner = {q: new.bindings[q].parameter for q in new.attributes}
    new_params = set(owner.values())
    removed = tuple(p for p in sorted(old_params) if p not in new_params)

    involved = set(added_params)
    involved.update(owner[q] for q in changed_attrs)
    params_out = []
    for q in new.attributes:
        p = owner[q]
        if p in involved and p not in params_out:
            params_out.append(p)

    keep = set(params_out)
    bindings = {q: new.bindings[q] for q in new.attributes if owner[q] in keep}
    return ContextState(
        parameters=tuple(params_out),
        attributes=tuple(changed_attrs),
        timestamp=new.timestamp,
        bindings=bindings,
        removed_parameters=removed,
    )


def catch_context(
    cs: ContextualSituation, state: ContextState, scope: ScopeFilter
) -> ContextState:
    """Restrict ``cs`` to ``scope`` and fold the real changes into ``state``.

    Mirrors the contextual-event trigger: the stored state is replaced by the
    change set when one exists, otherwise it is returned untouched.
    """
    restricted = scope.restrict(cs)
    if restricted.is_empty:
        return state
    return diff(restricted, state)
