"""Context algebra: atomic contexts, situations and per-scope states.

A situation is what the environment reports at one moment: its time and the
atomic context bound to each qualified attribute. The central operation is
:func:`catch_context`, which folds the contexts a situation binds within one
scope into that scope's last observed state and produces the change set (new
parameters, changed attributes) that drives adaptation downstream.
Atomic contexts and scope filters are frozen values. Situations and states
are plain slotted records, which are cheaper to build: a run builds one
state per change it catches, and nothing mutates one once built. Operations
are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple, Union

Value = Union[str, int, float, bool]

CONNECTORS = ("=", ">", "<", ">=", "<=", "!=", "In", "At", "near", "from")
CATEGORIES = ("organization", "role", "external")
TEMPORALITIES = ("static", "steady", "dynamic")


def normalize_value(value: Value):
    """Canonical form used for change detection and pattern matching.

    Text compares case-insensitively (and ignores surrounding blanks),
    numbers compare numerically, booleans stand on their own. A number is
    its own form: an int and a float that are equal compare and hash
    alike, and whole numbers past 2**53 stay exact.
    """
    if isinstance(value, bool):
        # Tagged so that True does not collide with the number 1.
        return ("bool", value)
    if isinstance(value, str):
        return value.strip().casefold()
    return value


def is_value(value) -> bool:
    """Whether ``value`` is text, a number or a truth value."""
    return isinstance(value, (str, int, float))


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
        """The value normalized (``normalize_value``), as states compare it."""
        return normalize_value(self.value)


@dataclass(slots=True)
class ContextualSituation:
    """What the environment reports at ``timestamp``: ``bindings`` maps each
    qualified attribute to its current atomic context."""

    timestamp: int
    bindings: Mapping[str, AtomicContext]

    @classmethod
    def from_contexts(cls, contexts, timestamp: int) -> "ContextualSituation":
        """Package a plain list of atomic contexts as a situation; a repeated
        attribute keeps its first place and binds its last context."""
        return cls(timestamp, {ctx.qualified: ctx for ctx in contexts})


@dataclass(slots=True)
class ContextState:
    """The state of one scope: the change it last caught.

    ``parameters`` lists the parameters that change involved, ``attributes``
    the changed attributes of known parameters, and ``bindings`` maps each
    qualified attribute of an involved parameter to its context. Activities
    with equal scopes catch the same situations, so they share one state;
    the activity being evaluated is named where the state is instantiated.
    """

    parameters: Tuple[str, ...]
    attributes: Tuple[str, ...]
    timestamp: int
    bindings: Mapping[str, AtomicContext]

    @classmethod
    def from_contexts(cls, contexts, timestamp: int) -> "ContextState":
        """The state that binds ``contexts``, naming every parameter and
        attribute in first-listed order; a repeated attribute binds its last
        context."""
        params = {}  # an insertion-ordered set
        bindings = {}
        for ctx in contexts:
            params[ctx.parameter] = None
            bindings[ctx.qualified] = ctx
        return cls(tuple(params), tuple(bindings), timestamp, bindings)

    @property
    def is_empty(self) -> bool:
        return not self.parameters and not self.attributes


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


def catch_context(
    contexts: Sequence[AtomicContext], state: ContextState, timestamp: int
) -> ContextState:
    """Fold ``contexts``, the contexts a situation at ``timestamp`` binds
    within one scope, in situation order, into the scope's ``state``.

    Mirrors the contextual-event trigger: the stored state is replaced by the
    change set when one exists, and returned untouched otherwise or when
    ``timestamp`` is not newer. Each context is classified once, and its
    parameter comes from the context itself: a parameter name may contain a
    dot. A parameter is known when the state lists it or binds one of its
    attributes; the bound parameters are gathered only for a context whose
    parameter the state does not list, which a state the runner built never
    lacks.
    """
    if timestamp <= state.timestamp:
        return state
    old = state.bindings
    listed = state.parameters
    bound = None  # the parameters ``old`` binds, gathered on first need
    # Each parameter of ``contexts`` in first-listed order, and whether it
    # is involved in the change: added, or owning a changed attribute.
    involved = {}
    changed = []
    for ctx in contexts:
        p = ctx.parameter
        if p not in listed:
            if bound is None:
                bound = {c.parameter for c in old.values()}
            if p not in bound:
                involved[p] = True
                continue
        q = ctx.qualified
        prior = old.get(q)
        if prior is None or prior.key != ctx.key:
            changed.append(q)
            involved[p] = True
        elif p not in involved:
            involved[p] = False
    parameters = tuple([p for p, hit in involved.items() if hit])
    if not parameters:
        return state
    bindings = {ctx.qualified: ctx for ctx in contexts if involved[ctx.parameter]}
    return ContextState(parameters, tuple(changed), timestamp, bindings)
