"""Situation ingestion against the all-states oracle, plus call guards.

The production runner keeps one state per distinct scope and offers a
situation only to the scopes whose parameters and attributes it names and
that an activity still awaiting evaluation holds;
``oracles._AllStatesRunner`` keeps a state per activity and restricts and
folds every situation into every activity's state
(``oracles.catch_context_oracle``). Both must produce
identical traces (values included) and final orders, or the same error,
and agree on every activity's state.
"""

import collections
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow import chain as chain_mod
from ctxflow.chain import (
    FRAGMENT_ACTIONS,
    PLAIN_ACTIONS,
    Action,
    ActivityChain,
    ActivityNode,
    AdaptationRule,
    ProcessModel,
)
from ctxflow.context import AtomicContext, ContextualSituation, ScopeFilter
from ctxflow.errors import CtxflowError
from ctxflow.files import load_bundle
from ctxflow.fragments import (
    FragmentActivity,
    FragmentRepository,
    ProcessFragment,
    SubgoalEntry,
)
from ctxflow.graph import (
    AttributeNode,
    Composition,
    ContextGraph,
    EntityNode,
    StateNodeDef,
    composite_from_pairs,
)

import oracles
from bundlegen import generate
from run import WORKLOADS

KIOSK = pathlib.Path(__file__).parent / "fixtures" / "kiosk" / "bundle.yaml"

ENTITIES = ("E0", "E1", "E2")
ATTRIBUTES = ("s", "t")
# "Z" is in the graph and "Nobody" is not; no activity watches either.
UNWATCHED = ("Z", "Nobody")
VALUES = ("good", "bad")
SUBGOALS = ("g0", "g1", "g2")
QUALIFIED = tuple("%s.%s" % (e, a) for e in ENTITIES + ("Z",) for a in ATTRIBUTES)


def random_scope(rng):
    """A scope by parameter only, by attribute only, or both, and the
    attribute the activity's composite value reads."""
    e, f = rng.choice(ENTITIES), rng.choice(ENTITIES)
    kind = rng.choice(("parameter", "attribute", "both", "mixed"))
    if kind == "parameter":
        params, attrs = {e}, set()
    elif kind == "attribute":
        params = set()
        qualified = ["%s.%s" % (e, a) for a in ATTRIBUTES]
        attrs = set(rng.sample(qualified, rng.randint(1, 2)))
    elif kind == "both":
        params, attrs = {e}, {"%s.s" % e}
    else:
        params, attrs = {e}, {"%s.t" % f}
    reads = min(attrs) if not params else "%s.s" % e
    return ScopeFilter(frozenset(params), frozenset(attrs)), reads


def entities_of(scope):
    return set(scope.relevant_parameters) | {
        q.split(".")[0] for q in scope.relevant_attributes
    }


def random_model(rng):
    """Activities sharing entities, rules over every action, timed attributes.

    Fragment activities are named after chain activities or fresh names, so
    an activity removed by a bypass or replacement may come back under its
    old id and state. Reserve activities ``r*`` lead the chain, bypass
    themselves on their first run (their sub-goal ``orig`` selects no
    fragment) and are the favourite fragment names. Every state node maps
    the whole graph, so the only contract a state can break is an unbound
    composed attribute.
    """
    reserve = ["r%d" % i for i in range(rng.randint(0, 3))]
    ids = reserve + ["a%d" % i for i in range(rng.randint(1, 8))]
    scoped = {a: random_scope(rng) for a in ids}
    graph = ContextGraph.build(
        entities=[EntityNode(e) for e in ENTITIES + ("Z",)],
        attributes=[
            AttributeNode(q, delay=rng.choice((0, 0, 0, 5, 30))) for q in QUALIFIED
        ],
        state_nodes=[
            StateNodeDef(
                a, ENTITIES + ("Z",), QUALIFIED, Composition("AND", (scoped[a][1],))
            )
            for a in ids
        ],
    )
    names = ids + 3 * reserve + ["f0", "f1"]
    fragments = {}
    for k in range(3):
        frag = ProcessFragment(
            "F%d" % k,
            tuple(
                FragmentActivity(rng.choice(names), sub_goal=rng.choice(SUBGOALS))
                for _ in range(rng.randint(1, 2))
            ),
        )
        fragments[frag.id] = frag
    subgoals = [SubgoalEntry(len(SUBGOALS) + 1, "orig")] + [
        SubgoalEntry(
            index,
            name,
            tuple(
                (composite_from_pairs([(q, v)], "AND"), rng.choice(sorted(fragments)))
                for q in QUALIFIED
                for v in VALUES
                if rng.random() < 0.4
            ),
        )
        for index, name in enumerate(SUBGOALS, start=1)
    ]
    nodes = [
        ActivityNode(
            id=a,
            sub_goal="orig" if a in reserve else rng.choice(SUBGOALS),
            scope=scoped[a][0],
            duration=rng.choice((0, 5, 10, 20)),
        )
        for a in ids
    ]
    rules = []
    for a in ids:
        if a in reserve:
            picks = [("bypass", v) for v in VALUES]
            picks += [(rng.choice(FRAGMENT_ACTIONS), v) for v in VALUES]
        else:
            picks = [
                (rng.choice(FRAGMENT_ACTIONS + PLAIN_ACTIONS + ("bypass",) * 2),
                 rng.choice(VALUES))
                for _ in range(rng.randint(0, 3))
            ]
        for kind, v in picks:
            patterns = sorted(fragments) if kind in FRAGMENT_ACTIONS else [None]
            value = composite_from_pairs([(scoped[a][1], v)], "AND")
            for pattern in patterns:
                action = Action(
                    kind,
                    role="R",
                    medium="M",
                    order=tuple(rng.sample(("L1", "L2", "L3"), 3)),
                    data=("d",),
                )
                rules.append(AdaptationRule(a, value, pattern, action))
    ideal = {
        q: AtomicContext(*q.split("."), value="good")
        for q in QUALIFIED
    }
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(nodes),
        FragmentRepository(tuple(subgoals), fragments),
        tuple(rules),
        ideal,
    )
    times = sorted(rng.randint(0, 80) for _ in range(rng.randint(0, 6)))
    scenario = []
    for t in times:
        contexts = []
        for e in rng.sample(ENTITIES + UNWATCHED, rng.randint(1, 3)):
            # Mostly one value for all of an entity's attributes, so that a
            # composed attribute usually changes along with the others.
            value = rng.choice(VALUES)
            contexts += [
                AtomicContext(e, a, value=value if rng.random() < 0.8 else
                              rng.choice(VALUES))
                for a in ATTRIBUTES
            ]
        scenario.append(ContextualSituation.from_contexts(contexts, timestamp=t))
    return model, scenario, {a: scoped[a][0] for a in ids}


def states_of(runner):
    """Each activity awaiting evaluation and its state: the oracle's own
    states, or the engine's state of the activity's scope."""
    if isinstance(runner, oracles._AllStatesRunner):
        return dict(runner.states)
    return {a: w.state for a, w in runner.watches.items()}


def recording(runner_class):
    """``runner_class`` noting its states after each ingested situation."""

    class Recording(runner_class):
        def __init__(self, model, scenario):
            super().__init__(model, scenario)
            self.snapshots = []

        def _ingest_due_situations(self):
            seen = self.next_situation
            super()._ingest_due_situations()
            if self.next_situation != seen:
                self.snapshots.append(states_of(self))

    return Recording


def outcome(runner_class, model, scenario):
    """Trace entries, final order and state snapshots, or the raised error."""
    runner = recording(runner_class)(model, scenario)
    try:
        trace = runner.run()
    except Exception as exc:  # compared as data: both runners must agree
        return ("raised", type(exc).__name__, str(exc), runner.snapshots)
    return ("ran", trace.entries, trace.final_order, runner.snapshots)


def assert_matches_oracle(model, scenario):
    got = outcome(chain_mod._Runner, model, scenario)
    assert got == outcome(oracles._AllStatesRunner, model, scenario)
    return got


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_random_models_match_oracle(seed):
    model, scenario, _ = random_model(random.Random(seed))
    assert_matches_oracle(model, scenario)


def test_random_models_cover_the_cases():
    ran = 0
    seen = collections.Counter()
    for seed in range(300):
        model, scenario, scopes = random_model(random.Random(seed))
        got = assert_matches_oracle(model, scenario)
        if got[0] != "ran":
            continue
        ran += 1
        entries = got[1]
        seen.update(e.action.split("(")[0] for e in entries if e.action)
        seen["deferred"] += any(e.deferred_until is not None for e in entries)
        seen["parameter only"] += any(
            not s.relevant_attributes for s in scopes.values()
        )
        seen["attribute only"] += any(
            not s.relevant_parameters for s in scopes.values()
        )
        watched = [entities_of(s) for s in scopes.values()]
        seen["shared"] += any(
            a & b for i, a in enumerate(watched) for b in watched[i + 1:]
        )
        # A situation after a removal, with the removed activity's state kept.
        last = scenario[-1].timestamp if scenario else None
        seen["removed first"] += any(
            e.action in ("bypass", "replace_fragment")
            and last is not None and e.timestamp < last
            for e in entries
        )
    assert ran > 150
    for case in ("bypass", "replace_fragment", "add_before", "add_after",
                 "reorder", "deferred", "parameter only", "attribute only",
                 "shared", "removed first"):
        assert seen[case] > 0, case


def test_kiosk_matches_oracle():
    bundle = load_bundle(KIOSK)
    kind, entries, _, _ = assert_matches_oracle(bundle.model, bundle.scenario)
    assert kind == "ran"
    assert len([e for e in entries if e.action]) == 5


def test_shared_scope_checks_each_activity_against_its_own_state_node():
    """``a0`` and ``a1`` watch the same scope and share its state, but only
    ``a0``'s state node links ``E0.t``: the evaluation of ``a1`` must check
    the changed attributes against ``a1``'s node and fail there."""
    scope = ScopeFilter(frozenset({"E0"}), frozenset())
    graph = ContextGraph.build(
        entities=[EntityNode("E0")],
        attributes=[AttributeNode(q) for q in ("E0.s", "E0.t")],
        state_nodes=[
            StateNodeDef("a0", ("E0",), ("E0.s", "E0.t"), Composition("AND", ("E0.s",))),
            StateNodeDef("a1", ("E0",), ("E0.s",), Composition("AND", ("E0.s",))),
        ],
    )
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(
            [ActivityNode(a, sub_goal="g0", scope=scope) for a in ("a0", "a1")]
        ),
        FragmentRepository((SubgoalEntry(1, "g0"),), {}),
        (),
        {q: AtomicContext("E0", q[3:], value="good") for q in ("E0.s", "E0.t")},
    )
    scenario = [ContextualSituation.from_contexts(
        [AtomicContext("E0", a, value="bad") for a in ("s", "t")], timestamp=0
    )]
    got = assert_matches_oracle(model, scenario)
    assert got[:3] == (
        "raised",
        "UnknownContextError",
        "attribute 'E0.t' of state 'a1' has no blue link",
    )


# -- routing and the fold against restrict-then-diff -----------------------

# "Net.Op" + "Status" and "Net" + "Op.Status" share the qualified name
# "Net.Op.Status".
ROUTE_PARAMETERS = ("Net.Op", "Net", "W")
ROUTE_ATTRIBUTES = ("Status", "Op.Status", "Level")
ROUTE_QUALIFIED = tuple(
    sorted({"%s.%s" % (p, a) for p in ROUTE_PARAMETERS for a in ROUTE_ATTRIBUTES})
)
# Case, blanks, int against float and a truth value.
ROUTE_VALUES = ("a", " A ", "b", 1, 1.0, True)


def random_contexts(rng, most):
    """Up to ``most`` contexts, an attribute possibly listed more than once."""
    return [
        AtomicContext(
            rng.choice(ROUTE_PARAMETERS),
            rng.choice(ROUTE_ATTRIBUTES),
            value=rng.choice(ROUTE_VALUES),
        )
        for _ in range(rng.randint(0, most))
    ]


def random_routing(rng):
    """Scopes naming parameters, qualified attributes or both, an ideal, a
    scenario whose timestamps may repeat, the activities evaluated before
    it starts, and each situation's contexts as drawn."""
    scopes = [
        ScopeFilter(
            frozenset(p for p in ROUTE_PARAMETERS if rng.random() < 0.3),
            frozenset(q for q in ROUTE_QUALIFIED if rng.random() < 0.2),
        )
        for _ in range(rng.randint(1, 5))
    ]
    ids = ["a%d" % i for i in range(rng.randint(1, 6))]
    nodes = [ActivityNode(a, sub_goal="g0", scope=rng.choice(scopes)) for a in ids]
    model = ProcessModel(
        # The graph declares only what the ideal names: nothing is evaluated.
        ContextGraph.build(
            entities=[], attributes=[AttributeNode(q) for q in ROUTE_QUALIFIED]
        ),
        ActivityChain.from_nodes(nodes),
        FragmentRepository((SubgoalEntry(1, "g0"),), {}),
        (),
        ContextualSituation.from_contexts(random_contexts(rng, 5), -1).bindings,
    )
    times = sorted(rng.randint(0, 6) for _ in range(rng.randint(1, 8)))
    listed = [random_contexts(rng, 5) for _ in times]
    scenario = [
        ContextualSituation.from_contexts(contexts, timestamp=t)
        for contexts, t in zip(listed, times)
    ]
    evaluated = [a for a in ids if rng.random() < 0.2]
    return model, scenario, evaluated, listed


def routed_against_oracle(model, scenario, evaluated):
    """Ingest ``scenario`` one situation at a time and check every watch's
    state against ``oracles.catch_context_oracle`` on the watch's scope: the
    identical state when the oracle hands its state back, an equal one
    (bindings in the same order) otherwise, and no change to a watch whose
    activities were all evaluated. Returns the number of (situation, watch)
    pairs that changed, that stayed, and that were skipped."""
    runner = chain_mod._Runner(model, [])
    for a in evaluated:
        runner._caught(a)
    expected = {w: w.state for w in runner.distinct_watches}
    counts = collections.Counter()
    for cs in scenario:
        before = {w: w.state for w in expected}
        runner.scenario.append(cs)
        runner.clock = cs.timestamp
        runner._ingest_due_situations()
        for w, prior in before.items():
            if not w.waiting:
                assert w.state is prior
                counts["skipped"] += 1
                continue
            oracle = oracles.catch_context_oracle(cs, expected[w], w.scope)
            if oracle is expected[w]:
                assert w.state is prior
                counts["stayed"] += 1
            else:
                assert w.state is not prior
                assert w.state == oracle
                assert list(w.state.bindings.items()) == list(oracle.bindings.items())
                counts["changed"] += 1
            expected[w] = oracle
    return counts


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_routing_and_fold_match_restrict_then_diff(seed):
    model, scenario, evaluated, _ = random_routing(random.Random(seed))
    routed_against_oracle(model, scenario, evaluated)


def test_routing_cases_come_up():
    seen = collections.Counter()
    for seed in range(300):
        model, scenario, evaluated, listed = random_routing(random.Random(seed))
        seen.update(routed_against_oracle(model, scenario, evaluated))
        bound = dict(model.ideal)
        for cs, drawn in zip(scenario, listed):
            contexts = list(cs.bindings.values())
            seen["repeated"] += len(contexts) < len(drawn)
            # Two parameters listed under one qualified name: one binding.
            seen["collision"] += len({ctx.parameter for ctx in drawn}) > len(
                {ctx.parameter for ctx in contexts}
            )
            seen["both names"] += any(
                ctx.parameter in node.scope.relevant_parameters
                and ctx.qualified in node.scope.relevant_attributes
                for node in model.chain.nodes.values()
                for ctx in contexts
            )
            for ctx in contexts:
                prior = bound.get(ctx.qualified)
                if prior is not None and prior.value != ctx.value:
                    seen["equal keys"] += prior.key == ctx.key
                if prior is not None and prior.value == ctx.value:
                    seen["truth against number"] += prior.key != ctx.key
                bound[ctx.qualified] = ctx
        times = [cs.timestamp for cs in scenario]
        seen["not newer"] += len(set(times)) < len(times)
    for case in ("changed", "stayed", "skipped", "collision", "repeated",
                 "both names", "equal keys", "truth against number", "not newer"):
        assert seen[case] > 0, case


# -- the route table: fixed cases ------------------------------------------


def route_model(scopes, durations=None, ideal=()):
    """Activities ``a0``, ``a1``, ... with ``scopes`` and ``durations``
    (0 by default) over the routing names, the ``ideal`` contexts, and no
    rules: each state node composes ``W.Level``, and each evaluation is a
    ``no-rule`` entry."""
    ids = ["a%d" % i for i in range(len(scopes))]
    graph = ContextGraph.build(
        entities=[EntityNode(p) for p in ROUTE_PARAMETERS],
        attributes=[AttributeNode(q) for q in ROUTE_QUALIFIED],
        state_nodes=[
            StateNodeDef(
                a, ROUTE_PARAMETERS, ROUTE_QUALIFIED, Composition("AND", ("W.Level",))
            )
            for a in ids
        ],
    )
    nodes = [
        ActivityNode(a, sub_goal="g0", scope=scope, duration=d)
        for a, scope, d in zip(ids, scopes, durations or [0] * len(ids))
    ]
    return ProcessModel(
        graph,
        ActivityChain.from_nodes(nodes),
        FragmentRepository((SubgoalEntry(1, "g0"),), {}),
        (),
        ContextualSituation.from_contexts(ideal, -1).bindings,
    )


def situation(timestamp, *contexts):
    return ContextualSituation.from_contexts(
        [AtomicContext(p, a, value=v) for p, a, v in contexts], timestamp
    )


def test_a_route_is_rebuilt_when_a_dotted_name_collides():
    """``Net.Op`` + ``Status`` and ``Net`` + ``Op.Status`` both qualify as
    ``Net.Op.Status``: each situation reaches only the scope of the
    parameter that binds it, though the first one cached a route under
    that name."""
    model = route_model([
        ScopeFilter(frozenset({"Net.Op"}), frozenset()),
        ScopeFilter(frozenset({"Net"}), frozenset()),
    ])
    scenario = [
        situation(1, ("Net.Op", "Status", "down")),
        situation(2, ("Net", "Op.Status", "down")),
        situation(3, ("Net.Op", "Status", "up")),
    ]
    counts = routed_against_oracle(model, scenario, [])
    assert counts == {"changed": 3, "stayed": 3}


def test_a_cached_route_skips_a_watch_that_finished(monkeypatch):
    """Both scopes take the first ``W.Level``, which caches its route;
    ``a0`` is then evaluated, and the next ``W.Level`` reaches only ``a1``'s
    scope."""
    by_parameter = ScopeFilter(frozenset({"W"}), frozenset())
    by_attribute = ScopeFilter(frozenset(), frozenset({"W.Level"}))
    model = route_model(
        [by_parameter, by_attribute],
        durations=[10, 0],
        ideal=[AtomicContext("W", "Level", value="a")],
    )
    scenario = [situation(0, ("W", "Level", "b")), situation(5, ("W", "Level", "c"))]
    calls = guarded_calls(chain_mod._Runner, model, scenario, monkeypatch)
    assert [(i, scope) for i, scope, *_ in calls] == [
        (0, by_parameter), (0, by_attribute), (1, by_attribute),
    ]
    assert all(not executed and touched and live
               for _, _, executed, touched, live in calls)
    kind, entries, final_order, _ = assert_matches_oracle(model, scenario)
    assert kind == "ran" and final_order == ["a0", "a1"]
    assert [(e.kind, e.activity_id, e.value.pairs) for e in entries] == [
        ("no-rule", "a0", (("W.Level", "b"),)),
        ("no-rule", "a1", (("W.Level", "c"),)),
    ]


def test_a_scope_filed_under_both_names_gets_the_context_once(monkeypatch):
    both = ScopeFilter(frozenset({"W"}), frozenset({"W.Level"}))
    model = route_model([both], ideal=[AtomicContext("W", "Level", value="a")])
    scenario = [situation(0, ("W", "Level", "b"), ("W", "Status", "up"))]
    # The guard checks that the contexts passed are the restriction's, each
    # once.
    calls = guarded_calls(chain_mod._Runner, model, scenario, monkeypatch)
    assert [(i, scope) for i, scope, *_ in calls] == [(0, both)]
    assert routed_against_oracle(model, scenario, []) == {"changed": 1}
    kind, entries, _, _ = assert_matches_oracle(model, scenario)
    assert kind == "ran"
    assert [(e.kind, e.value.pairs) for e in entries] == [
        ("no-rule", (("W.Level", "b"),)),
    ]


# -- call guard --------------------------------------------------------------


def scope_of_state(watches):
    """A function from a state to the scope of the watch holding it, over
    ``watches`` (every watch a runner made); states are told apart by
    identity."""
    watches = set(watches)

    def scope_of(state):
        held = [w.scope for w in watches if w.state is state]
        assert len(held) == 1
        return held[0]

    return scope_of


def guarded_calls(runner_class, model, scenario, monkeypatch):
    """Run ``runner_class`` with its catch wrapped; list the calls.

    The engine calls ``catch_context``; the all-states oracle calls
    ``oracles.catch_context_oracle``. Each call is recorded as (situation
    index, scope, whether every activity that carries an equal scope in the
    chain had executed, whether the scope covers anything in the situation
    passed, whether an activity awaiting evaluation carries an equal scope
    in the chain). Each engine call must also be passed exactly the
    contexts the oracle's restriction keeps, and the situation's timestamp.
    """
    runner = runner_class(model, scenario)
    calls = []

    def record(cs, scope):
        nodes = runner.chain.nodes
        ran = runner.chain.ids[:runner.resume]
        calls.append((
            runner.next_situation - 1,
            scope,
            all(a in ran for a, n in nodes.items() if n.scope == scope),
            any(scope.covers(ctx) for ctx in cs.bindings.values()),
            any(nodes[a].scope == scope for a in runner.watches),
        ))

    if runner_class is oracles._AllStatesRunner:
        module, name = oracles, "catch_context_oracle"

        def wrapped(cs, state, scope):
            record(cs, scope)
            return original(cs, state, scope)
    else:
        module, name = chain_mod, "catch_context"
        scope_of = scope_of_state(runner.watches.values())

        def wrapped(contexts, state, timestamp):
            cs = runner.scenario[runner.next_situation - 1]
            scope = scope_of(state)
            restricted = oracles.restrict(scope, cs)
            assert contexts == list(restricted.bindings.values())
            assert timestamp == cs.timestamp
            record(cs, scope)
            return original(contexts, state, timestamp)

    original = getattr(module, name)
    monkeypatch.setattr(module, name, wrapped)
    try:
        runner.run()
    except CtxflowError:  # both runners raise at the same point
        pass
    finally:
        monkeypatch.setattr(module, name, original)
    return calls


def test_kiosk_calls_catch_context_five_times(monkeypatch):
    bundle = load_bundle(KIOSK)
    calls = guarded_calls(chain_mod._Runner, bundle.model, bundle.scenario, monkeypatch)
    assert len(calls) == 5
    assert all(not executed and touched and live
               for _, _, executed, touched, live in calls)


def test_catch_context_once_per_touched_scope_awaiting_evaluation(monkeypatch):
    checked = shared = 0
    for seed in range(200):
        model, scenario, _ = random_model(random.Random(seed))
        calls = guarded_calls(chain_mod._Runner, model, scenario, monkeypatch)
        assert all(not executed and touched and live
                   for _, _, executed, touched, live in calls)
        # The oracle offers every situation to every state; the engine calls
        # once per situation and distinct scope among the oracle's calls on
        # unexecuted activities that the situation touches.
        oracle_calls = guarded_calls(
            oracles._AllStatesRunner, model, scenario, monkeypatch
        )
        touched = [
            (i, scope) for i, scope, executed, touched, _ in oracle_calls
            if touched and not executed
        ]
        engine = collections.Counter((i, scope) for i, scope, *_ in calls)
        assert engine == collections.Counter(set(touched))
        checked += len(calls)
        shared += len(touched) - len(calls)
    assert checked > 0 and shared > 0


@pytest.mark.parametrize("name", ["run-observe", "run-adapt"])
def test_bench_shapes_catch_once_per_situation_and_live_scope(
    name, monkeypatch, tmp_path
):
    """On the benchmark's run shapes, no rewrite happens before the last
    situation is due, so an activity is evaluated when the clock reaches
    the first situation's timestamp plus the durations of the activities
    before it, and its scope is live for every situation due by then."""
    generate(WORKLOADS[name].shape, 3300, tmp_path)
    bundle = load_bundle(tmp_path / "bundle.yaml")
    clock = bundle.scenario[0].timestamp
    evaluated_at = {}
    for node in bundle.model.chain.nodes.values():
        if node.scope is not None:
            evaluated_at[node.scope] = clock
        clock += node.duration
    pairs = sum(
        1
        for cs in bundle.scenario
        for scope, at in evaluated_at.items()
        if at >= cs.timestamp
        and any(scope.covers(ctx) for ctx in cs.bindings.values())
    )
    assert pairs == {"run-observe": 1200, "run-adapt": 8}[name]
    calls = []
    original = chain_mod.catch_context

    def counted(contexts, state, timestamp):
        calls.append(state)
        return original(contexts, state, timestamp)

    monkeypatch.setattr(chain_mod, "catch_context", counted)
    chain_mod.run_instance(bundle.model, bundle.scenario)
    assert len(calls) == pairs


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_finished_scope_never_catches_a_situation(seed):
    """Once every activity of a scope has been evaluated, the scope is never
    offered a situation, not even while a deferred action waits for a timed
    value."""
    model, scenario, scopes = random_model(random.Random(seed))
    evaluated = set()
    original = chain_mod.catch_context

    class Noting(chain_mod._Runner):
        def _evaluate(self, node, at):
            evaluated.add(node.id)
            super()._evaluate(node, at)

    runner = Noting(model, scenario)
    scope_of = scope_of_state(runner.watches.values())

    def wrapped(contexts, state, timestamp):
        scope = scope_of(state)
        assert any(s == scope and a not in evaluated for a, s in scopes.items())
        return original(contexts, state, timestamp)

    chain_mod.catch_context = wrapped
    try:
        runner.run()
    except CtxflowError:  # a model that cannot run still must not break the rule
        pass
    finally:
        chain_mod.catch_context = original


@pytest.mark.parametrize("name", ["run-observe", "run-adapt"])
def test_bench_shapes_match_oracle(name, tmp_path):
    """The benchmark's run shapes at seed 1: the routed runner and the
    all-states oracle agree on the trace, the final order and every state
    after each situation."""
    generate(WORKLOADS[name].shape, 1, tmp_path)
    bundle = load_bundle(tmp_path / "bundle.yaml")
    kind, entries, final_order, _ = assert_matches_oracle(
        bundle.model, bundle.scenario
    )
    assert kind == "ran"
    kinds = collections.Counter(e.kind for e in entries)
    assert (kinds, len(final_order)) == {
        "run-observe": ({"no-rule": 100}, 100),
        "run-adapt": ({"no-rule": 400, "applied": 400}, 1000),
    }[name]
