"""The extended process model: activity chain, adaptation rules and the runner.

Activities form one ordered chain: a list of ids in execution order plus the
nodes by id. Five rewrite strategies operate on the chain: fragment
insertion, replacement (by fragment, of role, of medium), bypass, window
reordering and data-level change; each is a splice of the id list. The
runner walks the chain, evaluates each activity's contextual event just
before it executes, and applies the action selected by the first matching
rule. The chain is the schedule: its head is what ran, in the order it ran,
so at the end of a run the chain is the final order.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .context import (
    AtomicContext,
    ContextState,
    ContextualSituation,
    ScopeFilter,
    catch_context,
)
from .errors import (
    ChainIntegrityError,
    EmptyChainError,
    InvalidWindowError,
    UnknownActivityError,
    UnknownContextError,
)
from .fragments import FragmentRepository, ProcessFragment, throw_activity
from .graph import (
    CompositeValue,
    ContextGraph,
    apply_dependencies,
    assign_values,
    compose_value,
    instantiate,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ActivityNode:
    """One activity; a value, so a rewrite stores a changed copy under its id."""

    id: str
    sub_goal: str
    role: str = ""
    medium: str = ""
    output_data: FrozenSet[str] = frozenset()
    scope: Optional[ScopeFilter] = None
    duration: int = 0


class ActivityChain:
    """Activity ids in execution order (``ids``) and the activities by id."""

    def __init__(self, nodes: Dict[str, ActivityNode], ids: List[str]):
        self.nodes = nodes
        self.ids = ids

    @classmethod
    def from_nodes(cls, ordered: Sequence[ActivityNode]) -> "ActivityChain":
        if not ordered:
            raise EmptyChainError("a chain needs at least one activity")
        nodes = {}
        for node in ordered:
            if node.id in nodes:
                raise ChainIntegrityError("duplicate activity id %r" % (node.id,))
            nodes[node.id] = node
        return cls(nodes, list(nodes))

    def copy(self) -> "ActivityChain":
        """A chain of its own over the same (immutable) activities."""
        return ActivityChain(dict(self.nodes), list(self.ids))

    def __len__(self):
        return len(self.nodes)

    def __contains__(self, activity_id):
        return activity_id in self.nodes

    def node(self, activity_id: str) -> ActivityNode:
        try:
            return self.nodes[activity_id]
        except KeyError:
            raise UnknownActivityError(
                "no activity %r in chain" % (activity_id,)
            ) from None

    def position(self, activity_id: str, at: Optional[int] = None) -> int:
        """Index of the activity in ``ids``.

        ``at`` is where the caller last saw it: if the activity is still
        there, no search is made, and otherwise ``ids`` is searched.
        """
        ids = self.ids
        if at is not None and 0 <= at < len(ids) and ids[at] == activity_id:
            return at
        self.node(activity_id)
        return ids.index(activity_id)

    def order(self) -> List[str]:
        return list(self.ids)

    def validate(self) -> None:
        """Raise unless ``ids`` lists every activity in ``nodes`` exactly once."""
        ids, nodes = self.ids, self.nodes
        listed = set(ids)
        if len(listed) == len(ids) and nodes.keys() == listed:
            return
        raise ChainIntegrityError(
            "chain order and activities disagree: unlisted %r, unknown %r, "
            "repeated %r"
            % (
                [i for i in nodes if i not in listed],
                [i for i in ids if i not in nodes],
                [i for i, count in Counter(ids).items() if count > 1],
            )
        )

    def _splice(
        self,
        start: int,
        window: List[str],
        new_ids: List[str],
        added: Sequence[ActivityNode] = (),
    ) -> None:
        """Replace the ids ``window`` at ``start`` with ``new_ids``, adding
        the activities ``added``.

        Only what the splice changes is checked: ``window`` must be what
        ``ids`` holds at ``start``, and every added id must be new. So a
        chain that was consistent stays consistent, at the cost of the
        splice rather than of the chain. The caller drops the activities of
        ``window`` that ``new_ids`` does not keep.
        """
        stop = start + len(window)
        if self.ids[start:stop] != window:
            raise ChainIntegrityError(
                "expected %r at position %d, found %r"
                % (window, start, self.ids[start:stop])
            )
        nodes = self.nodes
        for node in added:
            if node.id in nodes:
                raise ChainIntegrityError(
                    "inserted activity id %r already in chain" % (node.id,)
                )
            nodes[node.id] = node
        self.ids[start:stop] = new_ids


def _materialize(fragment: ProcessFragment, chain: ActivityChain) -> List[ActivityNode]:
    nodes = []
    for activity in fragment.activities:
        node_id = activity.name
        suffix = 2
        while node_id in chain.nodes or any(n.id == node_id for n in nodes):
            node_id = "%s#%d" % (activity.name, suffix)
            suffix += 1
        nodes.append(
            ActivityNode(
                id=node_id,
                sub_goal=activity.sub_goal or activity.name,
                role=activity.role,
                medium=activity.medium,
            )
        )
    return nodes


def add_fragment(
    chain: ActivityChain,
    target: str,
    position: str,
    fragment: ProcessFragment,
    *,
    at: Optional[int] = None,
) -> ActivityChain:
    """Insert a fragment's activities directly before or after ``target``.

    ``at``, here and in the other rewrites, is where the caller last saw
    the target in ``chain.ids`` (see ``ActivityChain.position``).
    """
    i = chain.position(target, at)
    run = _materialize(fragment, chain)
    if position not in ("before", "after"):
        raise ValueError("position must be 'before' or 'after'")
    new = [node.id for node in run]
    new_ids = new + [target] if position == "before" else [target] + new
    chain._splice(i, [target], new_ids, run)
    return chain


def replace_activity(
    chain: ActivityChain,
    target: str,
    fragment: ProcessFragment,
    *,
    at: Optional[int] = None,
) -> ActivityChain:
    """Swap ``target`` out of the chain for the fragment's activities."""
    i = chain.position(target, at)
    run = _materialize(fragment, chain)
    chain._splice(i, [target], [node.id for node in run], run)
    del chain.nodes[target]
    return chain


def replace_attribute(
    chain: ActivityChain, target: str, kind: str, new_value: str
) -> ActivityChain:
    """Change who performs the activity (role) or how (medium); no rewiring."""
    node = chain.node(target)
    if kind not in ("role", "medium"):
        raise ValueError("kind must be 'role' or 'medium'")
    chain.nodes[target] = replace(node, **{kind: new_value})
    return chain


def bypass(
    chain: ActivityChain, target: str, *, at: Optional[int] = None
) -> ActivityChain:
    """Drop ``target`` from the chain; its neighbours become adjacent."""
    if len(chain) < 2:
        raise EmptyChainError("cannot bypass the only activity")
    chain._splice(chain.position(target, at), [target], [])
    del chain.nodes[target]
    return chain


def reorder(
    chain: ActivityChain,
    window: Sequence[str],
    permutation: Sequence[str],
    *,
    at: Optional[int] = None,
) -> ActivityChain:
    """Permute a contiguous window of two or three activities.

    ``window`` must list the activities in their current chain order;
    ``permutation`` is the same ids in the desired order. All six
    permutations of a 3-window are supported; 2-windows cover the
    start/end-attached degenerate cases. ``at`` is where the caller last
    saw the window's first activity.
    """
    window = list(window)
    permutation = list(permutation)
    if sorted(window) != sorted(permutation) or not 2 <= len(window) <= 3:
        raise InvalidWindowError(
            "permutation %r does not rearrange window %r" % (permutation, window)
        )
    for wid in window:
        chain.node(wid)
    i = chain.position(window[0], at)
    end = i + len(window)
    if chain.ids[i:end] != window:
        raise InvalidWindowError(
            "window %r is not contiguous in the chain" % (window,)
        )
    chain.ids[i:end] = permutation
    return chain


def data_level_change(chain: ActivityChain, target: str, delta) -> ActivityChain:
    """Update the activity's output data; topology is untouched."""
    node = chain.node(target)
    chain.nodes[target] = replace(node, output_data=node.output_data.union(delta))
    return chain


# -- adaptation rules -------------------------------------------------------

FRAGMENT_ACTIONS = ("add_before", "add_after", "replace_fragment")
PLAIN_ACTIONS = (
    "replace_role",
    "replace_medium",
    "bypass",
    "reorder",
    "data_change",
)


@dataclass(frozen=True)
class Action:
    kind: str
    role: str = ""  # replace_role
    medium: str = ""  # replace_medium
    order: Tuple[str, ...] = ()  # reorder: labels among L2 (prev), L1, L3 (next)
    data: Tuple[str, ...] = ()  # data_change

    def __post_init__(self):
        if self.kind not in FRAGMENT_ACTIONS + PLAIN_ACTIONS:
            raise ValueError("unknown action kind %r" % (self.kind,))
        if self.kind == "reorder" and sorted(set(self.order)) != sorted(self.order):
            raise ValueError("reorder labels must be distinct")

    @property
    def needs_fragment(self) -> bool:
        return self.kind in FRAGMENT_ACTIONS

    @cached_property
    def description(self) -> str:
        """The kind, with the extra it takes in brackets when there is one,
        as traces show it; an action is fixed at load, so this is built once."""
        kind = self.kind
        if kind == "replace_role":
            extra = self.role
        elif kind == "replace_medium":
            extra = self.medium
        elif kind == "reorder":
            extra = "->".join(self.order)
        elif kind == "data_change":
            extra = "+".join(sorted(self.data))
        else:
            extra = ""
        return "%s(%s)" % (kind, extra) if extra else kind


@dataclass(frozen=True)
class AdaptationRule:
    activity_id: str
    value_pattern: CompositeValue
    fragment_pattern: Optional[str]  # fragment id, or None
    action: Action

    def __post_init__(self):
        if not self.value_pattern.pairs:
            raise ValueError("rule value pattern cannot be empty")
        if self.action.needs_fragment and self.fragment_pattern is None:
            raise ValueError(
                "action %r needs a selected fragment" % (self.action.kind,)
            )
        if not self.action.needs_fragment and self.fragment_pattern is not None:
            raise ValueError(
                "action %r applies only when no fragment was selected"
                % (self.action.kind,)
            )


def select_rule(
    model: "ProcessModel", activity_id: str, key,
    fragment: Optional[ProcessFragment],
) -> Optional[AdaptationRule]:
    """The first rule listed for ``activity_id`` whose fragment and value
    pattern match the fragment and the value normalized to ``key``
    (``CompositeValue.normalized``), or None, found by one lookup."""
    fragment_id = fragment.id if fragment is not None else None
    return model._rule_index.get((activity_id, fragment_id, key))


# -- the integrated model and its runner ------------------------------------


@dataclass
class ProcessModel:
    """Context graph + chain + rules + ideal context assignment.

    ``rules`` is in precedence order: of the rules that match an activity's
    evaluation, the first one listed for the activity applies. A model is
    checked once, when it is built: its chain must list every activity
    exactly once, and every rule and ideal context must name an activity
    and an attribute the model has. Commands trust a built model, and a
    run works on a copy of its chain.
    """

    graph: ContextGraph
    chain: ActivityChain
    repo: FragmentRepository
    rules: Tuple[AdaptationRule, ...]
    ideal: Mapping[str, AtomicContext]  # qualified attribute -> ideal context
    keys: InitVar[Optional[Sequence[object]]] = None  # each rule's pattern normalized
    _rule_index: Dict[tuple, AdaptationRule] = field(init=False, repr=False, compare=False)

    def __post_init__(self, keys):
        self.chain.validate()
        # The first rule listed under an (activity, fragment id, pattern) key wins.
        index: Dict[tuple, AdaptationRule] = {}
        for i, rule in enumerate(self.rules):
            if rule.activity_id not in self.chain:
                raise UnknownActivityError(
                    "rule targets unknown activity %r" % (rule.activity_id,)
                )
            key = keys[i] if keys is not None else rule.value_pattern.normalized()
            index.setdefault((rule.activity_id, rule.fragment_pattern, key), rule)
        for q in self.ideal:
            if q not in self.graph.attributes:
                raise UnknownContextError(
                    "ideal assignment names unknown attribute %r" % (q,)
                )
        self._rule_index = index


@dataclass(slots=True)
class TraceEntry:
    """One decision of the runner, taken at ``timestamp``.

    ``kind`` says which: ``"no-change"`` (the activity's state activated
    nothing), ``"no-rule"`` (a value, but no rule matched it),
    ``"applied"``, ``"deferred"`` (a timed value postponed the action to
    ``deferred_until``) or ``"deferred-applied"`` (that action applying
    later). Every kind but the last is the one evaluation of an activity.
    """

    kind: str
    timestamp: int
    activity_id: str
    value: Optional[CompositeValue]
    fragment_id: Optional[str]
    action: Optional[str]
    deferred_until: Optional[int]

    def describe(self) -> str:
        parts = [
            "t=%d" % self.timestamp,
            self.activity_id,
            self.value.render() if self.value is not None else "-",
            self.fragment_id or "-",
            self.action or self.kind,
        ]
        if self.deferred_until is not None:
            parts.append("deferred-until=%d" % self.deferred_until)
        return " | ".join(parts)


@dataclass
class AdaptationTrace:
    entries: List[TraceEntry] = field(default_factory=list)
    final_order: List[str] = field(default_factory=list)

    @property
    def actions(self) -> List[TraceEntry]:
        return [e for e in self.entries if e.action]


@dataclass
class _Pending:
    due: int
    activity_id: str
    rule: AdaptationRule
    fragment: Optional[ProcessFragment]
    value: CompositeValue


class _Watch:
    """One scope, the state it caught, how many of its activities await
    evaluation, and the last evaluation made of the state.

    Activities with equal scopes start from the same restriction of the
    ideal and catch the same situations, so one state serves them all; the
    state names no activity. A watch stays on the routes that list it, and
    ingestion skips it once ``waiting`` is 0. ``slot`` is the state, the
    state node's parameters, attributes and composition, the composite value
    and its selection key of the last evaluation kept, or None.
    Watches hash by identity.
    """

    __slots__ = ("scope", "state", "waiting", "slot")

    def __init__(self, scope: ScopeFilter, state: ContextState):
        self.scope = scope
        self.state = state
        self.waiting = 0
        self.slot: Optional[Tuple[ContextState, tuple, CompositeValue, object]] = None


class _Runner:
    def __init__(self, model: ProcessModel, scenario: Sequence[ContextualSituation]):
        self.model = model
        self.chain = model.chain.copy()
        self.scenario = list(scenario)
        self.trace = AdaptationTrace()
        # The watch of each scoped activity that awaits evaluation;
        # evaluating the activity drops it.
        self.watches: Dict[str, _Watch] = {}
        # Deferred actions by activity, in deferral order. An activity is
        # evaluated once and stays in the chain while its action waits, so
        # it has at most one; until it applies, the activity is blocked.
        self.pending: Dict[str, _Pending] = {}
        # ``chain.ids[:resume]`` is what ran, in the order it ran; no rewrite
        # touches it, and the walk resumes at ``resume``.
        self.resume = 0
        self.clock = self.scenario[0].timestamp if self.scenario else 0
        self.next_situation = 0
        # One watch per distinct scope, filed in chain order under each
        # parameter and each qualified attribute the scope names.
        self.watchers_by_parameter: Dict[str, Dict[_Watch, None]] = {}
        self.watchers_by_attribute: Dict[str, Dict[_Watch, None]] = {}
        # Each qualified name's route, built from the index on first use.
        self.routes: Dict[str, Tuple[str, Tuple[_Watch, ...]]] = {}
        # Grouped by name sets, which the loader shares between equal scopes.
        by_scope: Dict[tuple, _Watch] = {}
        for node in self.chain.nodes.values():
            scope = node.scope
            if scope is None:
                continue
            names = (scope.relevant_parameters, scope.relevant_attributes)
            watch = by_scope.get(names)
            if watch is None:
                watch = by_scope[names] = self._watch(scope)
            watch.waiting += 1
            self.watches[node.id] = watch

    def _watch(self, scope: ScopeFilter) -> _Watch:
        ideal = [ctx for ctx in self.model.ideal.values() if scope.covers(ctx)]
        # Timestamp -1 marks the design-time ideal, older than any observation.
        watch = _Watch(scope, ContextState.from_contexts(ideal, -1))
        for name in scope.relevant_parameters:
            self.watchers_by_parameter.setdefault(name, {})[watch] = None
        for name in scope.relevant_attributes:
            self.watchers_by_attribute.setdefault(name, {})[watch] = None
        return watch

    # -- scenario ingestion --------------------------------------------------

    def _ingest_due_situations(self) -> None:
        """Fold each due situation into the states of the scopes it touches.

        One walk over a situation hands each context, in situation order, to
        the watches its route lists, and each watch then folds the contexts
        it got. A route is ``(parameter, watches)``, looked up once by the
        context's qualified name and built on first use: the watches filed
        under the parameter and then under the qualified attribute, each
        once, in index order. Two contexts whose dotted names qualify alike
        (``Net.Op`` + ``Status``, ``Net`` + ``Op.Status``) share a key but
        not a route, so a route is rebuilt when its parameter differs. Only
        watches with an activity awaiting evaluation take part: an activity
        leaves the chain or executes only after its one evaluation, so a
        finished watch is skipped, not unfiled. The routes never go stale:
        scopes are set at load, and inserted activities have none.
        """
        scenario = self.scenario
        at = self.next_situation
        while at < len(scenario) and scenario[at].timestamp <= self.clock:
            cs = scenario[at]
            at += 1
            # While a situation is folded, the cursor is already past it.
            self.next_situation = at
            routed: Dict[_Watch, List[AtomicContext]] = {}
            for ctx in cs.bindings.values():
                p = ctx.parameter
                q = ctx.qualified
                route = self.routes.get(q)
                if route is None or route[0] != p:
                    watches = {
                        **self.watchers_by_parameter.get(p, {}),
                        **self.watchers_by_attribute.get(q, {}),
                    }
                    route = self.routes[q] = (p, tuple(watches))
                for watch in route[1]:
                    if watch.waiting:
                        contexts = routed.get(watch)
                        if contexts is None:
                            routed[watch] = [ctx]
                        else:
                            contexts.append(ctx)
            for watch, contexts in routed.items():
                watch.state = catch_context(contexts, watch.state, cs.timestamp)

    def _caught(self, activity_id: str) -> ContextState:
        """Drop ``activity_id``'s watch and return the state it caught."""
        watch = self.watches.pop(activity_id)
        watch.waiting -= 1
        return watch.state

    # -- evaluation ----------------------------------------------------------

    def _evaluate(self, node: ActivityNode, at: int) -> None:
        """Evaluate ``node``'s contextual event and act on it; ``at`` is the
        node's position in ``chain.ids``.

        The value depends only on the state and on the state node's shape,
        so it is computed once for each pair: an activity whose watch last
        evaluated this very state under an equal shape reuses that value
        and key. An activity without a state node has no shape and is
        always evaluated, and an evaluation that raises is not kept, so
        each error names its own activity. A value is kept only while
        another activity of the watch awaits evaluation.
        """
        watch = self.watches[node.id]
        state = self._caught(node.id)
        graph = self.model.graph
        stored = graph.state_nodes.get(node.id)
        # The loader shares equal parts, which then compare by identity. A
        # value is kept only once instantiate has found the state node, so a
        # slot's shape is never None, and an activity without one never matches.
        shape = stored and (stored.parameters, stored.attributes, stored.composition)
        slot = watch.slot
        if slot is not None and slot[0] is state and slot[1] == shape:
            value, key = slot[2], slot[3]
        else:
            activated = instantiate(graph, node.id, state)
            if activated is None:
                self._record("no-change", node.id, None, None, None)
                return
            bound = assign_values(graph, activated, state.bindings)
            bound = apply_dependencies(bound, activated, graph)
            value = compose_value(bound, stored)
            key = value.normalized()
            if watch.waiting:  # only an activity still waiting can reuse it
                watch.slot = (state, shape, value, key)
        thrown = throw_activity(self.model.repo, node.sub_goal, key)
        rule = select_rule(self.model, node.id, key, thrown.fragment)
        if rule is None:
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("no adaptation rule matched value %s", value.render())
            self._record("no-rule", node.id, value, thrown.fragment, None)
            return
        if value.max_delay > 0:
            due = self.clock + value.max_delay
            self.pending[node.id] = _Pending(
                due, node.id, rule, thrown.fragment, value
            )
            self._record(
                "deferred", node.id, value, thrown.fragment, rule, deferred_until=due
            )
            return
        self._apply(node.id, rule, thrown.fragment, at)
        self._record("applied", node.id, value, thrown.fragment, rule)

    def _record(
        self,
        kind: str,
        activity_id: str,
        value: Optional[CompositeValue],
        fragment: Optional[ProcessFragment],
        rule: Optional[AdaptationRule],
        deferred_until: Optional[int] = None,
    ) -> None:
        """Append the trace entry of one decision, taken at the current clock."""
        self.trace.entries.append(
            TraceEntry(
                kind,
                self.clock,
                activity_id,
                value,
                fragment.id if fragment else None,
                rule.action.description if rule else None,
                deferred_until,
            )
        )

    def _apply(
        self,
        activity_id: str,
        rule: AdaptationRule,
        fragment: Optional[ProcessFragment],
        at: Optional[int] = None,
    ) -> None:
        """Apply ``rule``'s action to ``activity_id``, found at ``at`` if the
        walk just passed it there; a deferred action, applied after later
        splices, has its target looked up."""
        action = rule.action
        chain = self.chain
        if action.kind in ("add_before", "add_after"):
            add_fragment(
                chain, activity_id, action.kind.split("_", 1)[1], fragment, at=at
            )
        elif action.kind == "replace_fragment":
            replace_activity(chain, activity_id, fragment, at=at)
        elif action.kind == "replace_role":
            replace_attribute(chain, activity_id, "role", action.role)
        elif action.kind == "replace_medium":
            replace_attribute(chain, activity_id, "medium", action.medium)
        elif action.kind == "bypass":
            bypass(chain, activity_id, at=at)
        elif action.kind == "reorder":
            start, window, permutation = self._resolve_reorder(
                activity_id, action.order, at
            )
            # What ran keeps its place: only the window's first activity can
            # have run, and then the rest take the permutation's order.
            if start < self.resume:
                permutation = window[:1] + [a for a in permutation if a != window[0]]
            reorder(chain, window, permutation, at=start)
        elif action.kind == "data_change":
            data_level_change(chain, activity_id, action.data)

    def _resolve_reorder(
        self, center: str, order: Sequence[str], at: Optional[int] = None
    ):
        """The start in ``chain.ids``, window and permutation of a reorder
        around ``center``, found at ``at`` if given and still right."""
        ids = self.chain.ids
        i = self.chain.position(center, at)
        start = i - 1 if i > 0 else i
        labels = {"L1": center}
        window = []
        if i > 0:
            labels["L2"] = ids[i - 1]
            window.append(ids[i - 1])
        window.append(center)
        if i + 1 < len(ids):
            labels["L3"] = ids[i + 1]
            window.append(ids[i + 1])
        if len(window) < 2:
            raise InvalidWindowError("cannot reorder a single-activity chain")
        if set(order) <= set(labels):
            permutation = [labels[lbl] for lbl in order]
            if sorted(permutation) == sorted(window):
                return start, window, permutation
        # Degenerate windows: fall back to swapping whatever neighbours exist.
        if len(window) == 2:
            return start, window, [window[1], window[0]]
        raise InvalidWindowError(
            "reorder labels %r do not fit window %r" % (tuple(order), tuple(window))
        )

    # -- main walk -----------------------------------------------------------

    def _next_unexecuted(self) -> Optional[int]:
        """Position in ``chain.ids`` of the first unexecuted activity that is
        not waiting on a deferred action, or None.

        An activity whose contextual event produced a timed value is blocked
        until the delay elapses; activities after it may run meanwhile, which
        is how a timed value postpones its activity in the schedule. Every
        activity from ``resume`` on is unexecuted.
        """
        ids = self.chain.ids
        end = len(ids)
        i = self.resume
        while i < end and ids[i] in self.pending:
            i += 1
        return i if i < end else None

    def _apply_due_pending(self) -> None:
        due = [p for p in self.pending.values() if p.due <= self.clock]
        for item in due:
            del self.pending[item.activity_id]
            self._apply(item.activity_id, item.rule, item.fragment)
            self._record(
                "deferred-applied", item.activity_id, item.value, item.fragment,
                item.rule,
            )

    def run(self) -> AdaptationTrace:
        # Each pass evaluates a model activity, executes one, jumps the clock
        # to a deferral or ends the run. Only model activities carry a scope,
        # and each is evaluated and deferred at most once.
        passes = 0
        model_size = len(self.model.chain)
        while True:
            passes += 1
            if passes > 2 * model_size + self.resume + 1:
                raise ChainIntegrityError("runner failed to make progress")
            self._ingest_due_situations()
            if self.pending:
                self._apply_due_pending()
            at = self._next_unexecuted()
            if at is None:
                if self.pending:
                    # Everything left is waiting on a timed value; let the
                    # clock run forward to the earliest deferral.
                    self.clock = min(p.due for p in self.pending.values())
                    continue
                break
            node = self.chain.nodes[self.chain.ids[at]]
            if node.id in self.watches:
                self._evaluate(node, at)
                continue  # chain may have been rewritten; re-resolve position
            ids = self.chain.ids
            if at != self.resume:  # it overtook deferred activities
                ids.insert(self.resume, ids.pop(at))
            self.resume += 1
            self.clock += node.duration
        # Each rewrite checked only its own splice; one full check per run
        # confirms the chain they left behind.
        self.chain.validate()
        self.trace.final_order = self.chain.ids
        return self.trace


def run_instance(
    model: ProcessModel, scenario: Sequence[ContextualSituation]
) -> AdaptationTrace:
    """Execute one process instance under a timed scenario.

    The logical clock starts at the first situation's timestamp and advances
    by activity durations; a situation becomes visible once the clock has
    reached its timestamp. Each activity with a scope has its contextual
    event evaluated once, immediately before the activity executes; an
    activity without one (every activity a fragment contributes) just
    executes. Actions whose composite value is timed are deferred by its
    maximum delay.
    """
    for i in range(1, len(scenario)):
        if scenario[i].timestamp < scenario[i - 1].timestamp:
            raise ValueError("scenario timestamps must be monotone")
    return _Runner(model, scenario).run()
