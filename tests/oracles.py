"""Independent reference implementations used to check the engine.

Each oracle re-derives expected results with a deliberately different
technique from the production code: an action description rebuilt from
every kind's extra on each call, plain list splicing for chain rewrites,
a linear sub-goal scan, linear row and rule scans that normalize every
pattern on every comparison, a runner that rescans the chain order on every
step and keeps its own record of what ran, a runner that checks the whole
chain after every rewrite, a runner that offers every situation to every
activity and restricts it to the activity's scope before folding it, a
runner that evaluates every activity's state afresh, a reference runner
that composes those three, a fold that rebuilds its facts from
whole situations, per-context classification for state changes, a
dependency fixpoint that normalizes both sides of every comparison, subset
enumeration for query evaluation, arc-scanning token counters for
state-space exploration, a net compiled from per-transition ``Counter``
subtraction, a dict-and-sort firing rule, property checks
that rebuild their maps from the arc list, a forward search of the
numbered space and separate scans of its arcs for the arc index, and PyYAML's pure-Python loader and constructor
for the document loader. The repository and query formatters invert their
parsers, for round-trip tests; the engine itself never writes either form.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter, deque
from dataclasses import dataclass, replace
from unittest import mock

import yaml

from ctxflow import chain as chain_mod
from ctxflow import files
from ctxflow.context import ContextState, ContextualSituation, normalize_value
from ctxflow.errors import (
    DependencyConflictError,
    DependencyCycleError,
    NotEnabledError,
    PartialSpaceError,
    UnknownSubgoalError,
)
from ctxflow.fragments import ThrowResult
from ctxflow.graph import TimedValue
from ctxflow.petri import BoundednessReport, LivenessReport, encode, make_marking


# -- pure-Python YAML loader ------------------------------------------------


def parsed_alike(text: str) -> bool:
    """Whether ``files.load_document``'s loader, with its event builder,
    parses ``text`` into stock ``yaml.SafeLoader``'s tree. ``repr`` also
    compares types and key order: ``==`` holds between ``1``, ``1.0`` and
    ``True``."""
    return repr(yaml.load(text, Loader=files._located(files._Loader))) == repr(
        yaml.load(text, Loader=yaml.SafeLoader)
    )


# -- per-call action description --------------------------------------------


def describe_oracle(action):
    """An action's description built as it once was on every call: the
    extras of all four kinds that take one, then the action's own picked."""
    extra = {
        "replace_role": action.role,
        "replace_medium": action.medium,
        "reorder": "->".join(action.order),
        "data_change": "+".join(sorted(action.data)),
    }.get(action.kind, "")
    return "%s(%s)" % (action.kind, extra) if extra else action.kind


# -- array-splice oracle for chain rewrites ---------------------------------


def splice_add(order, target, position, new_ids):
    i = order.index(target)
    at = i if position == "before" else i + 1
    return order[:at] + list(new_ids) + order[at:]


def splice_replace(order, target, new_ids):
    i = order.index(target)
    return order[:i] + list(new_ids) + order[i + 1:]


def splice_bypass(order, target):
    return [a for a in order if a != target]


def splice_reorder(order, window, permutation):
    i = order.index(window[0])
    assert order[i:i + len(window)] == list(window)
    return order[:i] + list(permutation) + order[i + len(window):]


# -- linear-scan oracle for sub-goal lookup ----------------------------------


def subgoal_oracle(repo, key):
    """The first sub-goal whose name or index equals ``key``, else None."""
    for entry in repo.subgoals:
        if entry.name == key or entry.index == key:
            return entry
    return None


# -- linear-scan oracles for fragment and rule selection ----------------------


def patterns_match(pattern, key):
    """Whether a composite value matches the value normalized to ``key``,
    the pattern normalized on every call."""
    return pattern.normalized() == key


def throw_scan(repo, subgoal, key):
    """The fragment of the first row of the sub-goal ``subgoal`` names whose
    pattern matches ``key``, scanning the rows in declaration order, or
    None; a sub-goal missing from the repository raises."""
    entry = subgoal_oracle(repo, subgoal)
    if entry is None:
        raise UnknownSubgoalError("sub-goal %r not in repository" % (subgoal,))
    for pattern, fragment_id in entry.rows:
        if patterns_match(pattern, key):
            return repo.fragments[fragment_id]
    return None


def select_rule_scan(model, activity_id, key, fragment):
    """The first rule in ``model.rules`` for ``activity_id`` whose fragment
    and value pattern match, scanning every rule, or None."""
    fragment_id = fragment.id if fragment is not None else None
    for rule in model.rules:
        if (
            rule.activity_id == activity_id
            and rule.fragment_pattern == fragment_id
            and patterns_match(rule.value_pattern, key)
        ):
            return rule
    return None


def selecting_by_scans():
    """A context in which the runner selects fragments and rules through the
    scans above instead of the engine's lookups."""
    return mock.patch.multiple(
        chain_mod,
        throw_activity=lambda repo, subgoal, key: ThrowResult(
            throw_scan(repo, subgoal, key)
        ),
        select_rule=select_rule_scan,
    )


# -- formatters: the inverse of the repository and query parsers ------------


def store_repository(repo):
    """The document ``files.load_repository`` builds ``repo`` from."""
    return {
        "subgoals": [
            {
                "index": entry.index,
                "name": entry.name,
                "entries": [
                    {
                        "op": pattern.op,
                        "value": [[attr, value] for attr, value in pattern.pairs],
                        "fragment": fragment_id,
                    }
                    for pattern, fragment_id in entry.rows
                ],
            }
            for entry in repo.subgoals
        ],
        "fragments": [
            {
                "id": frag.id,
                "activities": [
                    {
                        "name": a.name,
                        "sub_goal": a.sub_goal,
                        "role": a.role,
                        "medium": a.medium,
                    }
                    for a in frag.activities
                ],
            }
            for frag in repo.fragments.values()
        ],
    }


def format_query(q):
    """Canonical concrete syntax for a query (round-trips through parse)."""
    if q.kind == "and_by_parameter":
        return "AND %s WHERE parameter INSTANCE_OF %s" % (q.category, q.target)
    if q.kind == "and_cross_category":
        return "AND CHAIN %s" % " -> ".join(q.chain)
    if q.kind == "and_conditional":
        return "AND %s WHERE %s" % (q.category, _format_condition(q.condition))
    if q.kind == "or_same_instance":
        return "OR %s WHERE instance = %s AND attribute = %s" % (
            q.category,
            q.instance,
            q.attribute,
        )
    if q.kind == "or_same_value":
        return "OR %s WHERE attribute = %s AND value = %s" % (
            q.category,
            q.attribute,
            _format_value(q.value),
        )
    if q.kind == "not":
        inner = replace(q.predicate, negated=False)
        return "NOT %s" % inner.render()
    if q.kind == "arith":
        head = "ADD" if q.arith_op == "+" else "SUB"
        return "%s %s, %s" % (head, q.operands[0].render(), q.operands[1].render())
    raise ValueError("unknown query kind %r" % (q.kind,))


def _format_value(v):
    """``v`` as query text: a string is quoted where it holds a separator,
    or where YAML would read the bare word as something other than it."""
    if isinstance(v, str) and (re.search(r"[\s=<>!(),]", v) or _retyped(v)):
        return '"%s"' % v
    return str(v)


def _retyped(word):
    try:
        return yaml.safe_load(word) != word
    except (yaml.YAMLError, ValueError):
        return True


def _format_condition(c):
    if c.op in ("AND", "OR"):
        joint = " %s " % c.op
        return joint.join("(%s)" % _format_condition(ch) for ch in c.children)
    if c.field == "attr":
        return "attr %s %s %s" % (c.name, c.cmp, _format_value(c.value))
    return "%s %s %s" % (c.field, c.cmp, _format_value(c.value))


# -- rescanning oracle for the runner's walk ---------------------------------


class _RescanRunner(chain_mod._Runner):
    """The runner with its walk done the plain way.

    Every step rescans the chain order from its first activity, and the
    runner keeps its own record of what ran, in the order it ran. An
    activity is blocked while any pending action names it, and the rewrites
    are dispatched without position hints. A reorder keeps each activity
    that ran at its own place in the window and fills the other places in
    the permutation's order. Evaluation, ingestion, the main loop and the
    applying of due actions are the production ones.
    """

    def __init__(self, model, scenario):
        super().__init__(model, scenario)
        self.ran = {}  # the activities that ran, in the order they ran

    def _next_unexecuted(self):
        for i, cursor in enumerate(self.chain.order()):
            blocked = any(
                p.activity_id == cursor for p in self.pending.values()
            )
            if cursor not in self.ran and not blocked:
                if cursor not in self.watches:  # the walk executes it now
                    self.ran[cursor] = None
                return i
        return None

    def _apply(self, activity_id, rule, fragment, at=None):
        action = rule.action
        chain = self.chain
        if action.kind in ("add_before", "add_after"):
            chain_mod.add_fragment(
                chain, activity_id, action.kind.split("_", 1)[1], fragment
            )
        elif action.kind == "replace_fragment":
            chain_mod.replace_activity(chain, activity_id, fragment)
        elif action.kind == "replace_role":
            chain_mod.replace_attribute(chain, activity_id, "role", action.role)
        elif action.kind == "replace_medium":
            chain_mod.replace_attribute(chain, activity_id, "medium", action.medium)
        elif action.kind == "bypass":
            chain_mod.bypass(chain, activity_id)
        elif action.kind == "reorder":
            _, window, permutation = self._resolve_reorder(activity_id, action.order)
            rest = iter([a for a in permutation if a not in self.ran])
            kept = [a if a in self.ran else next(rest) for a in window]
            chain_mod.reorder(chain, window, kept)
        elif action.kind == "data_change":
            chain_mod.data_level_change(chain, activity_id, action.data)


def run_instance_oracle(model, scenario):
    return _RescanRunner(model, scenario).run()


# -- whole-chain check after every rewrite -----------------------------------


class CheckedRunner(chain_mod._Runner):
    """The production runner with ``ActivityChain.validate`` after every
    rewrite, where production checks each splice locally and the whole
    chain once at the end of the run."""

    def _apply(self, activity_id, rule, fragment, at=None):
        super()._apply(activity_id, rule, fragment, at)
        self.chain.validate()


# -- all-states oracle for situation ingestion -------------------------------


def restrict(scope, cs):
    """Drop every context of ``cs`` outside ``scope``, as a new situation."""
    kept = [ctx for ctx in cs.bindings.values() if scope.covers(ctx)]
    return ContextualSituation.from_contexts(kept, cs.timestamp)


def diff_rebuilding(new, old):
    """``catch_context`` over a whole situation that rebuilds its
    classification facts (the state's known parameters, each attribute's
    owner) from the situation and the state."""
    if new.timestamp <= old.timestamp:
        return old

    old_params = set(old.parameters)
    old_params.update(ctx.parameter for ctx in old.bindings.values())

    added_params = []
    changed_attrs = []
    for q, ctx in new.bindings.items():
        if ctx.parameter not in old_params:
            if ctx.parameter not in added_params:
                added_params.append(ctx.parameter)
        else:
            prior = old.bindings.get(q)
            if prior is None or prior.key != ctx.key:
                changed_attrs.append(q)

    if not added_params and not changed_attrs:
        return old

    owner = {q: ctx.parameter for q, ctx in new.bindings.items()}
    involved = set(added_params)
    involved.update(owner[q] for q in changed_attrs)
    params_out = []
    for p in owner.values():
        if p in involved and p not in params_out:
            params_out.append(p)

    keep = set(params_out)
    bindings = {q: ctx for q, ctx in new.bindings.items() if owner[q] in keep}
    return ContextState(
        parameters=tuple(params_out),
        attributes=tuple(changed_attrs),
        timestamp=new.timestamp,
        bindings=bindings,
    )


def catch_context_oracle(cs, state, scope):
    """Restrict the whole situation ``cs`` to ``scope`` and fold it into
    ``state`` with :func:`diff_rebuilding`; an empty restriction leaves
    ``state`` as it is."""
    restricted = restrict(scope, cs)
    if not restricted.bindings:
        return state
    return diff_rebuilding(restricted, state)


class _AllStatesRunner(chain_mod._Runner):
    """The runner with a state of its own for every scoped activity, and
    every situation offered to every state.

    Each scoped activity starts from the ideal restricted by its own scope,
    at timestamp -1. Each due situation goes through
    :func:`catch_context_oracle` for every activity that still has a state,
    touched or not; it restricts the situation and drops what the scope does
    not cover, so the engine's routing takes no part. The walk is the
    production one, but evaluates the oracle's states.
    """

    def __init__(self, model, scenario):
        super().__init__(model, scenario)
        self.states = {
            node.id: ContextState.from_contexts(
                [ctx for ctx in model.ideal.values() if node.scope.covers(ctx)], -1
            )
            for node in self.chain.nodes.values()
            if node.scope is not None
        }

    def _ingest_due_situations(self):
        while (
            self.next_situation < len(self.scenario)
            and self.scenario[self.next_situation].timestamp <= self.clock
        ):
            cs = self.scenario[self.next_situation]
            self.next_situation += 1
            for activity_id, state in list(self.states.items()):
                scope = self.chain.nodes[activity_id].scope
                # Looked up at each call, so that tests can wrap it.
                self.states[activity_id] = catch_context_oracle(cs, state, scope)

    def _caught(self, activity_id):
        super()._caught(activity_id)  # the walk's record of who awaits evaluation
        return self.states.pop(activity_id)


# -- per-activity evaluation -------------------------------------------------


class FreshEvaluationRunner(chain_mod._Runner):
    """The runner with every activity's contextual event evaluated afresh:
    the four steps and the selection key run once per activity, with no
    value kept from one activity for the next. Ingestion, the walk and the
    rewrites are the production ones."""

    def _evaluate(self, node, at):
        state = self._caught(node.id)
        graph = self.model.graph
        # Looked up at each call, so that tests can wrap them.
        activated = chain_mod.instantiate(graph, node.id, state)
        if activated is None:
            self._record("no-change", node.id, None, None, None)
            return
        bound = chain_mod.assign_values(graph, activated, state.bindings)
        bound = chain_mod.apply_dependencies(bound, activated, graph)
        value = chain_mod.compose_value(bound, graph.state_nodes[node.id])
        key = value.normalized()
        thrown = chain_mod.throw_activity(self.model.repo, node.sub_goal, key)
        rule = chain_mod.select_rule(self.model, node.id, key, thrown.fragment)
        if rule is None:
            self._record("no-rule", node.id, value, thrown.fragment, None)
        elif value.max_delay > 0:
            due = self.clock + value.max_delay
            self.pending[node.id] = chain_mod._Pending(
                due, node.id, rule, thrown.fragment, value
            )
            self._record(
                "deferred", node.id, value, thrown.fragment, rule, deferred_until=due
            )
        else:
            self._apply(node.id, rule, thrown.fragment, at)
            self._record("applied", node.id, value, thrown.fragment, rule)


def run_evaluating_afresh(model, scenario):
    return FreshEvaluationRunner(model, scenario).run()


# -- every layer at once -----------------------------------------------------


class ReferenceRunner(_RescanRunner, _AllStatesRunner, FreshEvaluationRunner):
    """The runner with the walk, the rewrites, ingestion and evaluation each
    done by its oracle above; :func:`run_reference` adds the scanning
    selection and dependency fixpoint. After every step it asserts that the
    chain's first ``resume`` ids are the activities that ran, in the order
    they ran, and at the end that the final order is the whole chain."""

    def _assert_schedule(self):
        assert self.chain.ids[:self.resume] == list(self.ran)

    def _next_unexecuted(self):
        self._assert_schedule()
        return super()._next_unexecuted()

    def _apply(self, activity_id, rule, fragment, at=None):
        super()._apply(activity_id, rule, fragment, at)
        self._assert_schedule()

    def run(self):
        trace = super().run()
        assert trace.final_order == self.chain.ids == list(self.ran)
        return trace


def apply_dependencies_by_scans(bound, activated, graph):
    """:func:`apply_dependencies_oracle` in the engine's place: its
    ``(value, delay)`` pairs come back as timed values keyed as the engine
    keys them."""
    out = apply_dependencies_oracle(bound, activated, graph.dependency_rules)
    return {
        attr: TimedValue(value, delay, normalize_value(value))
        for attr, (value, delay) in out.items()
    }


def run_reference(model, scenario):
    with selecting_by_scans(), mock.patch.object(
        chain_mod, "apply_dependencies", apply_dependencies_by_scans
    ):
        return ReferenceRunner(model, scenario).run()


# -- classification oracle for folding a situation into a state -------------


def _norm(v):
    if isinstance(v, bool):
        return ("truth", v)
    if isinstance(v, str):
        return v.strip().casefold()
    return float(v)


def diff_oracle(new, old):
    """Classify each context of the situation ``new`` and predict the fields
    of the state ``catch_context`` folds it into from ``old``.

    Returns None when the engine should hand back the old state untouched,
    else a dict with the expected parameters, attributes and timestamp.
    """
    if new.timestamp <= old.timestamp:
        return None
    known = set(old.parameters)
    for ctx in old.bindings.values():
        known.add(ctx.parameter)

    classes = {}  # qualified -> "added" | "changed" | "same"
    for q, ctx in new.bindings.items():
        if ctx.parameter not in known:
            classes[q] = "added"
        else:
            prior = old.bindings.get(q)
            if prior is None or _norm(prior.value) != _norm(ctx.value):
                classes[q] = "changed"
            else:
                classes[q] = "same"
    if all(c == "same" for c in classes.values()):
        return None

    changed_attrs = [q for q, c in classes.items() if c == "changed"]
    interesting = {
        new.bindings[q].parameter for q, c in classes.items() if c != "same"
    }
    params = []
    for ctx in new.bindings.values():
        if ctx.parameter in interesting and ctx.parameter not in params:
            params.append(ctx.parameter)
    return {
        "parameters": tuple(params),
        "attributes": tuple(changed_attrs),
        "timestamp": new.timestamp,
    }


# -- normalize-on-compare oracle for the dependency fixpoint ----------------


def apply_dependencies_oracle(bound, activated, rules):
    """The dependency fixpoint over raw values, each comparison normalizing
    both sides with ``_norm``; bindings map to ``(value, delay)`` pairs.

    Every pass fires each rule whose target is activated and whose
    antecedents all hold, and applies the writes together; the cap counts
    every rule, whatever its target.
    """
    bound = {attr: (timed.value, timed.delay) for attr, timed in bound.items()}
    cap = len(rules) * max(len(activated), 1) + 1
    for _ in range(cap):
        proposals = {}
        for rule in rules:
            target = rule.consequent.attribute
            if target not in activated:
                continue
            if not all(
                p.attribute in bound and _norm(bound[p.attribute][0]) == _norm(p.value)
                for p in rule.antecedent
            ):
                continue
            delay = max(bound[p.attribute][1] for p in rule.antecedent)
            value = (rule.consequent.value, delay)
            if target in proposals and _norm(proposals[target][0]) != _norm(value[0]):
                raise DependencyConflictError(
                    "rules disagree on %r: %r vs %r"
                    % (target, proposals[target][0], value[0])
                )
            proposals[target] = value
        changed = False
        for target, value in proposals.items():
            prior = bound.get(target)
            if prior is None or _norm(prior[0]) != _norm(value[0]):
                bound[target] = value
                changed = True
        if not changed:
            return bound
    raise DependencyCycleError(
        "dependency rules did not stabilise within %d passes" % (cap,)
    )


# -- subset-enumeration oracle for query evaluation -------------------------


def _member_by_parameter(pred, category, target):
    if pred.category.casefold() != category.casefold():
        return False
    t = target.casefold()
    s = pred.subject.casefold()
    if pred.instance_of is not None and pred.instance_of.casefold() == t:
        return True
    return s == t or s.endswith("_" + t)


def _member_condition(pred, condition):
    return condition.holds(pred)


def query_oracle(query, cs):
    """Expected selection for the AND/OR query kinds, via subset enumeration.

    Enumerates candidate subsets of the situation and keeps the maximal one
    whose members all satisfy the query's membership test; for chains, all
    stage combinations are enumerated to find complete chains.
    """
    if query.kind == "and_cross_category":
        stages = [
            [p for p in cs if p.category.casefold() == cat.casefold()]
            for cat in query.chain
        ]
        chosen = set()
        for combo in itertools.product(*stages):
            if all(
                _norm(combo[i].value) == _norm(combo[i + 1].subject)
                for i in range(len(combo) - 1)
            ):
                chosen.update(id(p) for p in combo)
        return [p for p in cs if id(p) in chosen]

    def member(pred):
        if pred.category.casefold() != query.category.casefold():
            return False
        if query.kind == "and_by_parameter":
            return _member_by_parameter(pred, query.category, query.target)
        if query.kind == "and_conditional":
            return _member_condition(pred, query.condition)
        if query.kind == "or_same_instance":
            return (
                _norm(pred.subject) == _norm(query.instance)
                and _norm(pred.attribute) == _norm(query.attribute)
            )
        if query.kind == "or_same_value":
            return (
                _norm(pred.attribute) == _norm(query.attribute)
                and _norm(pred.value) == _norm(query.value)
            )
        raise ValueError(query.kind)

    best = ()
    for size in range(len(cs) + 1):
        for subset in itertools.combinations(cs, size):
            if all(member(p) for p in subset) and len(subset) > len(best):
                best = subset
    return list(best)


# -- independent evaluation of the complexity formulas ----------------------


def halstead_oracle(n1, n2, N1, N2):
    log2 = lambda x: math.log(x) / math.log(2)  # noqa: E731
    return {
        "length": n1 * log2(n1) + n2 * log2(n2),
        "volume": (N1 + N2) * log2(n1 + n2),
        "difficulty": (n1 / 2.0) * (N2 / float(n2)),
    }


# -- arc-scanning oracle for state-space exploration ------------------------


def net_pre(net, transition):
    return Counter(
        (source, label) for source, target, label in net.arcs if target == transition
    )


def net_post(net, transition):
    return Counter(
        (target, label) for source, target, label in net.arcs if source == transition
    )


def compile_oracle(net):
    """The compiled form of ``net`` from arc-scanned ``Counter``s: keys,
    those of the arcs and of the initial marking, key positions, the field
    width and its masks, the packed initial marking, per-transition vectors
    and deltas, and the set of transitions each firing can enable or
    disable."""
    names = tuple(net.transitions)
    pres = [net_pre(net, name) for name in names]
    posts = [net_post(net, name) for name in names]
    packed = {(p, l): c for p, l, c in net.initial_marking}
    keys = tuple(sorted(set().union(*pres, *posts, packed)))
    index = {key: k for k, key in enumerate(keys)}
    largest = max([*packed.values(), *(n for c in pres + posts for n in c.values())],
                  default=0)
    width = 8
    while largest >= 2 ** (width - 1):
        width *= 2
    deltas = []
    changed = []
    for pre, post in zip(pres, posts):
        post.subtract(pre)  # now the change of every key pre or post names
        deltas.append(sum(change * 2 ** (index[key] * width) for key, change in post.items()))
        changed.append({index[key] for key, change in post.items() if change})
    pre_vectors = tuple(
        tuple(sorted((index[key] * width, need) for key, need in pre.items()))
        for pre in pres
    )
    readers = [[] for _ in keys]
    for t, pre in enumerate(pres):
        for key in pre:
            readers[index[key]].append(t)
    affected = tuple(
        frozenset(t for k in keys_changed for t in readers[k]) for keys_changed in changed
    )
    return {
        "keys": keys,
        "key_index": index,
        "width": width,
        "mask": 2 ** width - 1,
        "guard": sum(2 ** (k * width + width - 1) for k in range(len(keys))),
        "initial_state": sum(c * 2 ** (index[key] * width) for key, c in packed.items()),
        "pre_vectors": pre_vectors,
        "deltas": tuple(deltas),
        "affected": affected,
    }


def enabled_oracle(net, marking):
    tokens = Counter({(place, label): count for place, label, count in marking})
    return [
        name
        for name in net.transitions
        if all(tokens[key] >= need for key, need in net_pre(net, name).items())
    ]


def fire_oracle(net, marking, transition):
    if transition not in net.transitions:
        raise NotEnabledError("unknown transition %r" % (transition,))
    tokens = Counter({(place, label): count for place, label, count in marking})
    pre = net_pre(net, transition)
    if any(tokens[key] < need for key, need in pre.items()):
        raise NotEnabledError("transition %r is not enabled" % (transition,))
    for key, need in pre.items():
        tokens[key] -= need
    for key, made in net_post(net, transition).items():
        tokens[key] += made
    return make_marking(tokens)


@dataclass
class ExploredSpace:
    """The oracle's own record of an explored space: the markings in
    discovery order, and each expanded marking's (transition, successor)
    arcs, keyed by the marking itself."""

    initial: tuple
    order: list
    successors: dict
    partial: bool = False

    @property
    def nodes(self):
        return set(self.order)

    @property
    def arcs(self):
        return [(m, t, dst) for m, out in self.successors.items() for t, dst in out]


def explore_oracle(net, limit=100000):
    """Breadth-first exploration that recomputes every enabled set from arcs."""
    m0 = net.initial_marking
    space = ExploredSpace(initial=m0, order=[m0], successors={})
    seen = {m0}
    frontier = deque([m0])
    while frontier:
        marking = frontier.popleft()
        space.successors[marking] = []
        for transition in enabled_oracle(net, marking):
            successor = fire_oracle(net, marking, transition)
            if successor not in seen:
                if len(seen) >= limit:
                    space.partial = True
                    return space
                seen.add(successor)
                space.order.append(successor)
                frontier.append(successor)
            space.successors[marking].append((transition, successor))
    return space


# -- dict-and-sort firing and arc-scanning property checks ------------------


def fire_by_sort_oracle(net, marking, transition):
    """Firing through a dict of the marking's tokens, sorted back."""
    if transition not in net.transitions:
        raise NotEnabledError("unknown transition %r" % (transition,))
    tokens = {(place, label): count for place, label, count in marking}
    pre, post = net.pre(transition), net.post(transition)
    for key, need in pre.items():
        if tokens.get(key, 0) < need:
            raise NotEnabledError("transition %r is not enabled" % (transition,))
    for key in pre.keys() | post.keys():
        tokens[key] = tokens.get(key, 0) - pre[key] + post[key]
    return make_marking(tokens)


def check_bounded_oracle(space, k, net):
    bounds = {p: 0 for p in net.places}
    for marking in space.nodes:
        per_place = {}
        for place, label, count in marking:
            per_place[place] = per_place.get(place, 0) + count
        for place, total in per_place.items():
            bounds[place] = max(bounds.get(place, 0), total)
    return BoundednessReport(bounds, k)


def check_liveness_oracle(space, net):
    if space.partial:
        raise PartialSpaceError("liveness needs an exact state space")
    fired = Counter(t for _, t, _ in space.arcs)
    dead_transitions = tuple(sorted(t for t in net.transitions if fired[t] == 0))
    sources = {m for m, _, _ in space.arcs}
    dead_markings = tuple(sorted(m for m in space.nodes if m not in sources))
    return LivenessReport(dead_transitions, dead_markings)


def check_reachable_oracle(space, goal):
    adjacency = {}
    for src, t, dst in space.arcs:
        adjacency.setdefault(src, []).append((t, dst))
    seen = {space.initial: None}
    frontier = deque([space.initial])
    while frontier:
        marking = frontier.popleft()
        if marking == goal:
            path = []
            cursor = marking
            while seen[cursor] is not None:
                prev, t = seen[cursor]
                path.append(t)
                cursor = prev
            return True, list(reversed(path))
        for t, dst in sorted(adjacency.get(marking, [])):
            if dst not in seen:
                seen[dst] = (marking, t)
                frontier.append(dst)
    return False, []


def check_home_oracle(space, marking):
    if space.partial:
        raise PartialSpaceError("home property needs an exact state space")
    reverse = {}
    for src, _, dst in space.arcs:
        reverse.setdefault(dst, []).append(src)
    reached = {marking}
    frontier = deque([marking])
    while frontier:
        cursor = frontier.popleft()
        for prev in reverse.get(cursor, []):
            if prev not in reached:
                reached.add(prev)
                frontier.append(prev)
    return set(space.nodes) <= reached


# -- the numbered space's forward search and arc scans ----------------------


def check_reachable_forward_oracle(space, goal):
    """The shortest path to ``goal`` by a breadth-first search forward from
    marking 0 over the numbered space, taking each marking's arcs sorted by
    transition name. ``via[j]`` holds the number and the transition that
    first reached j. A marking never expanded has no arcs to follow."""
    target = space.number.get(encode(space.net, goal))
    if target is None:
        return False, []
    out = space.out
    expanded = len(out)
    via = [None] * len(space.number)
    via[0] = (0, "")
    frontier = deque([0])
    while frontier and via[target] is None:
        i = frontier.popleft()
        if i < expanded:
            for name, j in sorted(out[i]):
                if via[j] is None:
                    via[j] = (i, name)
                    frontier.append(j)
    if via[target] is None:
        return False, []
    path = []
    while target:
        target, name = via[target]
        path.append(name)
    path.reverse()
    return True, path


def arc_index_oracle(space):
    """``into``, ``fired`` and ``discovered`` of ``space``'s arc index, each
    from its own scan of ``out``. ``discovered`` groups by transition name
    the packed markings whose first arc in ``out`` is one of its, found by
    counting markings up as the arcs first reach them."""
    into = [[] for _ in space.number]
    for i, arcs in enumerate(space.out):
        for _, j in arcs:
            into[j].append(i)
    fired = {t for arcs in space.out for t, _ in arcs}
    states = list(space.number)
    discovered = {}
    found = 1
    for arcs in space.out:
        for name, j in arcs:
            if j == found:
                found += 1
                discovered.setdefault(name, []).append(states[j])
    return into, fired, discovered
