"""The runner's walk against the rescanning oracle, plus structural guards.

The production runner resumes its walk at a cursor, keeps blocked activities
in a count dict and takes inserted ids from the spliced run;
``oracles.run_instance_oracle`` rescans the chain from its start on every
step. Both must produce identical traces and final orders.
"""

import collections
import contextlib
import dataclasses
import functools
import pathlib
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow import chain as chain_mod
from ctxflow.chain import (
    FRAGMENT_ACTIONS,
    MAX_INSERTION_DEPTH,
    PLAIN_ACTIONS,
    Action,
    ActivityChain,
    ActivityNode,
    AdaptationRule,
    ProcessModel,
    run_instance,
)
from ctxflow.context import AtomicContext, ContextualSituation, ScopeFilter
from ctxflow.files import load_bundle
from ctxflow.fragments import (
    FragmentActivity,
    FragmentRepository,
    ProcessFragment,
    SubgoalEntry,
)
from ctxflow.graph import (
    AttributeNode,
    ContextGraph,
    EntityNode,
    StateNodeDef,
    composite_from_pairs,
)

import oracles

KIOSK = pathlib.Path(__file__).parent / "fixtures" / "kiosk" / "bundle.yaml"


class CheckedRunner(chain_mod._Runner):
    """Asserts after every rewrite that no executed activity left the chain.

    ``insert_depths`` counts applied fragment actions by insertion depth.
    """

    def __init__(self, model, scenario):
        super().__init__(model, scenario)
        self.insert_depths = collections.Counter()

    def _apply(self, activity_id, rule, fragment, value, depth):
        super()._apply(activity_id, rule, fragment, value, depth)
        assert self.executed <= self.chain.nodes.keys()
        if rule.action.needs_fragment:
            self.insert_depths[depth] += 1


def run_checked(model, scenario, insert_depths=None):
    model.validate()
    runner = CheckedRunner(model, scenario)
    try:
        trace = runner.run()
    finally:
        if insert_depths is not None:
            insert_depths.update(runner.insert_depths)
    assert set(trace.final_order) == set(runner.chain.nodes)
    assert len(trace.final_order) == len(runner.chain.nodes)
    return trace


def outcome(run, model, scenario):
    """The trace entries and final order, or the exception a run raised."""
    try:
        trace = run(model, scenario)
    except Exception as exc:  # compared as data: both runners must agree
        return ("raised", type(exc).__name__, str(exc))
    return ("ran", trace.entries, trace.final_order)


def assert_matches_oracle(model, scenario, insert_depths=None):
    got = outcome(
        functools.partial(run_checked, insert_depths=insert_depths), model, scenario
    )
    assert got == outcome(oracles.run_instance_oracle, model, scenario)
    return got


@contextlib.contextmanager
def scoped_fragments(scopes):
    """Give fragment activities the scope of the activity id they land on.

    Fragment activities carry no contextual event, so the runner's nested
    evaluation only does work when an inserted activity reuses the id, and
    here also the scope, of an activity removed earlier. That makes
    insertions that trigger further insertions, up to the depth cap.
    """
    materialize = chain_mod._materialize

    def scoped(fragment, chain):
        nodes = materialize(fragment, chain)
        for node in nodes:
            node.scope = scopes.get(node.id)
        return nodes

    with mock.patch.object(chain_mod, "_materialize", scoped):
        yield


# -- kiosk with random delays and durations ----------------------------------


@functools.lru_cache(maxsize=None)
def kiosk():
    # Runs copy the chain and never change the model, so one load serves all.
    return load_bundle(KIOSK)


def kiosk_variant(rng):
    bundle = kiosk()
    model = bundle.model
    graph = dataclasses.replace(
        model.graph,
        attributes={
            name: dataclasses.replace(attr, delay=rng.choice((0, 0, 5, 30, 120)))
            for name, attr in model.graph.attributes.items()
        },
    )
    chain = model.chain.copy()
    for node in chain.nodes.values():
        node.duration = rng.choice((0, 5, 15, 60))
    variant = ProcessModel(graph, chain, model.repo, model.rules, model.ideal)
    return variant, bundle.scenario


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_kiosk_with_delays_matches_oracle(seed):
    assert_matches_oracle(*kiosk_variant(random.Random(seed)))


def test_kiosk_delays_defer_actions():
    deferred = 0
    for seed in range(40):
        kind, entries, _ = assert_matches_oracle(*kiosk_variant(random.Random(seed)))
        assert kind == "ran"
        deferred += sum(e.deferred_until is not None for e in entries)
    assert deferred > 0


# -- random chains over all eight actions ------------------------------------

ENTITIES = 3
VALUES = ("good", "bad")
SUBGOALS = ("s0", "s1", "s2", "s3")


def attribute(entity):
    return "%s.s" % entity


def random_model(rng):
    """A chain whose rules span every action kind, with scoped re-insertion.

    Fragment activities are named after chain activities or fresh names, so
    an inserted activity may reuse the id of one removed earlier. Reserve
    activities ``r*`` lead the chain and bypass themselves on their first
    run (their sub-goal
    ``orig`` selects no fragment) and are the favourite fragment names; back
    in the chain under a fragment's sub-goal they may insert again, which
    nests insertions down to the depth cap.
    """
    reserve = ["r%d" % i for i in range(rng.randint(0, 5))]
    ids = reserve + ["a%d" % i for i in range(rng.randint(1, 8))]
    entity_of = {a: "E%d" % rng.randrange(ENTITIES) for a in ids}
    entities = ["E%d" % j for j in range(ENTITIES)]
    graph = ContextGraph.build(
        entities=[EntityNode(e) for e in entities],
        attributes=[
            AttributeNode(attribute(e), delay=rng.choice((0, 0, 0, 5, 30)))
            for e in entities
        ],
        state_nodes=[
            StateNodeDef(a, (entity_of[a],), (attribute(entity_of[a]),))
            for a in ids
        ],
    )
    scopes = {
        a: ScopeFilter(a, frozenset({entity_of[a]}), frozenset()) for a in ids
    }
    names = ids + 3 * reserve + ["f0"]
    fragments = {}
    for k in range(4):
        frag = ProcessFragment(
            "F%d" % k,
            tuple(
                FragmentActivity(rng.choice(names), sub_goal=rng.choice(SUBGOALS))
                for _ in range(rng.randint(1, 3))
            ),
        )
        fragments[frag.id] = frag
    subgoals = [SubgoalEntry(len(SUBGOALS) + 1, "orig")]
    for index, name in enumerate(SUBGOALS, start=1):
        rows = {
            (attribute(e), v): rng.choice(sorted(fragments))
            for e in entities
            for v in VALUES
            if rng.random() < 0.5
        }
        subgoals.append(
            SubgoalEntry(
                index,
                name,
                tuple((composite_from_pairs([key]), fid) for key, fid in rows.items()),
            )
        )
    nodes = [
        ActivityNode(
            id=a,
            sub_goal="orig" if a in reserve else rng.choice(SUBGOALS),
            scope=scopes[a],
            duration=rng.choice((0, 0, 5, 20)),
        )
        for a in ids
    ]
    rules = []
    for a in ids:
        # (kind, value, fragment pattern); a fragment action gets a rule for
        # every fragment, so it fires whenever its value matches.
        if a in reserve:
            picks = [("bypass", v) for v in VALUES]
            picks += [(rng.choice(FRAGMENT_ACTIONS), v) for v in VALUES]
        else:
            picks = [
                (rng.choice(FRAGMENT_ACTIONS + PLAIN_ACTIONS), rng.choice(VALUES))
                for _ in range(rng.randint(0, 4))
            ]
        specs = []
        for kind, value in picks:
            if kind in FRAGMENT_ACTIONS:
                specs += [(kind, value, fid) for fid in sorted(fragments)]
            else:
                specs.append((kind, value, None))
        for kind, value, pattern in specs:
            rules.append(
                AdaptationRule(
                    a,
                    composite_from_pairs([(attribute(entity_of[a]), value)]),
                    pattern,
                    Action(
                        kind,
                        role="R",
                        medium="M",
                        order=tuple(rng.sample(("L1", "L2", "L3"), 3)),
                        data=("d",),
                    ),
                    len(rules),
                )
            )
    rng.shuffle(rules)
    ideal = {
        attribute(e): AtomicContext(parameter=e, attribute="s", value="good")
        for e in entities
    }
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(nodes),
        FragmentRepository(tuple(subgoals), fragments),
        tuple(rules),
        ideal,
    )
    times = sorted(rng.randint(0, 60) for _ in range(rng.randint(0, 4)))
    scenario = [
        ContextualSituation.from_contexts(
            [
                AtomicContext(parameter=e, attribute="s", value=rng.choice(VALUES))
                for e in rng.sample(entities, rng.randint(1, ENTITIES))
            ],
            timestamp=t,
        )
        for t in times
    ]
    return model, scenario, scopes


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_random_chains_match_oracle(seed):
    model, scenario, scopes = random_model(random.Random(seed))
    with scoped_fragments(scopes):
        assert_matches_oracle(model, scenario)


def test_random_chains_cover_every_action():
    seen = set()
    ran = 0
    insert_depths = collections.Counter()
    for seed in range(300):
        model, scenario, scopes = random_model(random.Random(seed))
        with scoped_fragments(scopes):
            got = assert_matches_oracle(model, scenario, insert_depths)
        if got[0] == "ran":
            ran += 1
            seen.update(e.action.split("(")[0] for e in got[1] if e.action)
    assert seen == set(FRAGMENT_ACTIONS + PLAIN_ACTIONS)
    assert ran > 200
    assert insert_depths[MAX_INSERTION_DEPTH] > 0


# -- nested insertion up to the depth cap ------------------------------------


def nested_model():
    """``a`` inserts x1, which inserts x2, and so on past the depth cap.

    x1..x4 first run as ordinary activities and bypass themselves; each
    returns as a fragment activity whose sub-goal selects the next fragment.
    """
    xs = ["x1", "x2", "x3", "x4"]
    ids = xs + ["a"]
    graph = ContextGraph.build(
        entities=[EntityNode("E")],
        attributes=[AttributeNode("E.s")],
        state_nodes=[StateNodeDef(i, ("E",), ("E.s",)) for i in ids],
    )
    scopes = {i: ScopeFilter(i, frozenset({"E"}), frozenset()) for i in ids}
    bad = composite_from_pairs([("E.s", "bad")])
    fragments = {
        "F%d" % k: ProcessFragment(
            "F%d" % k, (FragmentActivity(xs[k - 1], sub_goal="n%d" % k),)
        )
        for k in range(1, 5)
    }
    subgoals = [SubgoalEntry(1, "orig"), SubgoalEntry(2, "top", ((bad, "F1"),))]
    subgoals += [
        SubgoalEntry(2 + k, "n%d" % k, ((bad, "F%d" % (k + 1)),)) for k in range(1, 4)
    ]
    rules = [AdaptationRule(x, bad, None, Action("bypass"), 0) for x in xs]
    rules.append(AdaptationRule("a", bad, "F1", Action("add_after"), 1))
    rules += [
        AdaptationRule(xs[k - 1], bad, "F%d" % (k + 1),
                       Action("add_before" if k % 2 else "add_after"), 2 + k)
        for k in range(1, 4)
    ]
    nodes = [ActivityNode(id=x, sub_goal="orig", scope=scopes[x]) for x in xs]
    nodes.append(ActivityNode(id="a", sub_goal="top", scope=scopes["a"]))
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(nodes),
        FragmentRepository(tuple(subgoals), fragments),
        tuple(rules),
        {"E.s": AtomicContext(parameter="E", attribute="s", value="good")},
    )
    scenario = [
        ContextualSituation.from_contexts(
            [AtomicContext(parameter="E", attribute="s", value="bad")], timestamp=0
        )
    ]
    return model, scenario, scopes


def test_nested_insertions_stop_at_depth_cap():
    assert MAX_INSERTION_DEPTH == 3
    model, scenario, scopes = nested_model()
    with scoped_fragments(scopes):
        kind, entries, final_order = assert_matches_oracle(model, scenario)
    assert kind == "ran"
    adds = [(e.activity_id, e.action) for e in entries if e.fragment_id]
    # a at depth 0, then x1, x2, x3 at depths 1-3, each entry written once its
    # own insertions are done; x4 comes back at depth 4 and is only marked
    # evaluated, so its one entry is the bypass from its first run.
    assert adds == [
        ("x3", "add_before"),
        ("x2", "add_after"),
        ("x1", "add_before"),
        ("a", "add_after"),
    ]
    assert [e.activity_id for e in entries].count("x4") == 1
    assert final_order == ["a", "x2", "x4", "x3", "x1"]


# -- structural guard --------------------------------------------------------


def test_runner_never_builds_the_chain_order(monkeypatch):
    calls = []
    order = ActivityChain.order

    def counted(self):
        calls.append(1)
        return order(self)

    monkeypatch.setattr(ActivityChain, "order", counted)
    bundle = load_bundle(KIOSK)
    trace = run_instance(bundle.model, bundle.scenario)
    assert len(trace.actions) == 5
    assert calls == []


def test_rules_for_keeps_declaration_tuple_order():
    model, _, _ = random_model(random.Random(3))
    for a in model.chain.nodes:
        assert model.rules_for(a) == tuple(
            r for r in model.rules if r.activity_id == a
        )
    assert model.rules_for("nobody") == ()
