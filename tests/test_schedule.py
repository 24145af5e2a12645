"""The chain is the schedule: its head is what ran, and the reference runner.

``_Runner`` keeps one record of what ran: ``chain.ids[:resume]``, in the
order it ran. An activity that executes moves to ``resume``, past the
deferred activities it overtook, and a reorder keeps what ran in place. So
at the end of a run the chain is the final order.

``oracles.ReferenceRunner`` swaps every layer for its oracle at once and
keeps its own record of what ran; whole runs must agree with production's.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contract
import oracles
from bundlegen import generate
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
from run import WORKLOADS
import test_ingestion
import test_runner

ORDERS = list(itertools.permutations(("L1", "L2", "L3")))
GENERATORS = {
    "test_runner.random_model": test_runner.random_model,
    "test_runner.kiosk_variant": test_runner.kiosk_variant,
    "test_ingestion.random_model": lambda rng: test_ingestion.random_model(rng)[:2],
}


def chain_model(specs):
    """A chain of ``(id, action or None, delay, duration)``, each scoped
    activity on an entity of its own, under one situation at t = 0 in which
    every entity turns bad. An activity with an action is scoped, and the
    action's rule matches that bad value after the entity's ``delay``;
    fragment actions insert ``F``, whose activities ``x`` and ``y`` carry
    no scope."""
    scoped = [(a, action, delay) for a, action, delay, _ in specs if action]
    graph = ContextGraph.build(
        entities=[EntityNode(a) for a, _, _ in scoped],
        attributes=[AttributeNode(a + ".s", delay=delay) for a, _, delay in scoped],
        state_nodes=[StateNodeDef(a, (a,), (a + ".s",)) for a, _, _ in scoped],
    )
    nodes = [
        ActivityNode(
            id=a, sub_goal="s", duration=duration,
            scope=ScopeFilter(frozenset({a}), frozenset()) if action else None,
        )
        for a, action, _, duration in specs
    ]
    fragment = ProcessFragment("F", (FragmentActivity("x"), FragmentActivity("y")))
    # A plain action applies only where no fragment was thrown.
    rows = tuple(
        (composite_from_pairs([(a + ".s", "bad")], "AND"), "F")
        for a, action, _ in scoped
        if action.needs_fragment
    )
    rules = tuple(
        AdaptationRule(
            a, composite_from_pairs([(a + ".s", "bad")], "AND"),
            "F" if action.needs_fragment else None, action,
        )
        for a, action, _ in scoped
    )
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(nodes),
        FragmentRepository((SubgoalEntry(1, "s", rows),), {"F": fragment}),
        rules,
        {
            a + ".s": AtomicContext(parameter=a, attribute="s", value="good")
            for a, _, _ in scoped
        },
    )
    scenario = [
        ContextualSituation.from_contexts(
            [AtomicContext(parameter=a, attribute="s", value="bad") for a, _, _ in scoped],
            timestamp=0,
        )
    ]
    return model, scenario


def run_production(model, scenario):
    """The trace and the chain a production run left."""
    runner = chain_mod._Runner(model, scenario)
    return runner.run(), runner.chain.ids


def assert_matches_reference(model, scenario):
    """Production, audited (a finished run's final order is its chain), and
    the reference runner give one outcome; that outcome is returned."""
    got = test_runner.outcome(test_runner.run_checked, model, scenario)
    assert got == test_runner.outcome(oracles.run_reference, model, scenario)
    return got


# -- the refined reorder ------------------------------------------------------


def test_a_reorder_that_reaches_an_overtaken_deferral_orders_only_what_has_not_run():
    # ``d`` is deferred to t = 30 and ``x`` overtakes it. ``c``'s reorder
    # then finds ``d`` before it in the schedule: its window is [d, c, n],
    # not [x, c, n], and ``x``, which ran, keeps its place.
    model, scenario = chain_model([
        ("d", Action("replace_role", role="R"), 30, 0),
        ("x", None, 0, 10),
        ("c", Action("reorder", order=("L3", "L1", "L2")), 0, 0),
        ("n", None, 0, 30),
        ("m", None, 0, 0),
    ])
    trace, ids = run_production(model, scenario)
    decisions = [(e.kind, e.timestamp, e.activity_id, e.deferred_until) for e in trace.entries]
    assert decisions == [
        ("deferred", 0, "d", 30),
        ("applied", 10, "c", None),
        ("deferred-applied", 40, "d", None),
    ]
    assert trace.final_order == ids == ["x", "n", "c", "d", "m"]
    assert_matches_reference(model, scenario)


def test_a_reorder_keeps_the_activity_that_ran_before_its_window():
    # Nothing is deferred: ``a`` ran, and ``c``'s window [a, c, n] keeps it
    # first; ``n`` and ``c`` take the permutation's order.
    model, scenario = chain_model([
        ("a", None, 0, 0),
        ("c", Action("reorder", order=("L3", "L2", "L1")), 0, 0),
        ("n", None, 0, 0),
    ])
    trace, ids = run_production(model, scenario)
    assert [e.kind for e in trace.entries] == ["applied"]
    assert trace.final_order == ids == ["a", "n", "c"]


def test_kiosk_variant_seed_1_runs_the_deferred_registration_last():
    model, scenario = test_runner.kiosk_variant(random.Random(1))
    trace, ids = run_production(model, scenario)
    (deferred,) = [e for e in trace.entries if e.activity_id == "Patient Registration"
                   and e.kind == "deferred"]
    assert deferred.deferred_until == 960
    assert trace.final_order == ids
    assert ids[-1] == "Patient Registration"
    assert trace.entries[-1].kind == "deferred-applied"


ACTIONS = [
    Action(kind, role="R", medium="M", data=("d",))
    for kind in FRAGMENT_ACTIONS + PLAIN_ACTIONS
    if kind != "reorder"
] + [Action("reorder", order=order) for order in ORDERS]


def rest_of_chain():
    """``(action or None, delay, duration)`` for up to five more activities."""
    return st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(ACTIONS)),
            st.sampled_from((0, 0, 5, 30)),
            st.sampled_from((0, 5, 20)),
        ),
        max_size=5,
    )


@pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.description)
@given(
    before=rest_of_chain(), after=rest_of_chain(),
    duration=st.sampled_from((0, 5, 20)),
)
@settings(max_examples=25, deadline=None)
def test_every_action_under_deferral_ends_with_the_chain_as_the_final_order(
    action, before, after, duration
):
    """Each action kind, and a reorder in each of its six orders, deferred
    at some place in a chain of others that may defer and reorder too."""
    specs = [("b%d" % i, *spec) for i, spec in enumerate(before)]
    specs.append(("t", action, 30, duration))
    specs += [("a%d" % i, *spec) for i, spec in enumerate(after)]
    model, scenario = chain_model(specs)
    got = assert_matches_reference(model, scenario)
    if got[0] == "ran":
        assert ("deferred", "t") in [(e.kind, e.activity_id) for e in got[1]]


# -- the reference runner ------------------------------------------------------


@pytest.fixture(scope="module")
def contract_bundles(tmp_path_factory):
    return contract.write_bundles(tmp_path_factory.mktemp("contract"))


@pytest.mark.parametrize("name", sorted(set(contract.BUNDLES) - {contract.SCENARIO}))
def test_contract_bundles_run_as_the_reference(name, contract_bundles):
    bundle = load_bundle(contract_bundles[name])
    assert assert_matches_reference(bundle.model, bundle.scenario)[0] == "ran"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_shapes_run_as_the_reference(name, seed, tmp_path):
    generate(WORKLOADS[name].shape, seed, tmp_path)
    bundle = load_bundle(tmp_path / "bundle.yaml")
    assert assert_matches_reference(bundle.model, bundle.scenario)[0] == "ran"


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generated_seeds_run_as_the_reference(generator):
    """Seeds 0-299 of each generator: almost all finish, many defer and
    overtake, and each run's outcome is the reference's."""
    ran = overtaken = 0
    for seed in range(300):
        model, scenario = GENERATORS[generator](random.Random(seed))
        got = assert_matches_reference(model, scenario)
        if got[0] != "ran":
            continue
        ran += 1
        final, listed = got[2], model.chain.ids
        for deferred in {e.activity_id for e in got[1] if e.kind == "deferred"}:
            if deferred in final:
                later = listed[listed.index(deferred) + 1:]
                overtaken += any(a in later for a in final[:final.index(deferred)])
    assert ran > 200 and overtaken > 0


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    generator=st.sampled_from(sorted(GENERATORS)),
)
@settings(max_examples=200, deadline=None)
def test_random_draws_run_as_the_reference(seed, generator):
    assert_matches_reference(*GENERATORS[generator](random.Random(seed)))
