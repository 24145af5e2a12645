"""One object per distinct fact of a load (``files._once``, hash-consing).

A load that shares equal contexts, value patterns, scopes and state-node
parts must build what a load building every entry on its own builds, equal
and printed alike, and no sharing may join values of different types or
outlive its load. The runner groups the shared scopes without comparing them.
"""

import dataclasses
from collections import Counter

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import contract
from bundlegen import generate
from ctxflow import chain as chain_mod
from ctxflow import files
from ctxflow.context import AtomicContext, ScopeFilter
from ctxflow.errors import LoadError
from ctxflow.files import load_bundle, load_repository, load_scenario
from run import WORKLOADS

# The contract's bundles hold each bench shape at seed 1, named after its
# workload, and some at seeds 2 and 3.
BENCH = {
    "%s-seed-%d" % (name, seed): (workload.shape, seed)
    for name, workload in WORKLOADS.items()
    for seed in (2, 3)
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Every bundle the CLI contract runs, and the bench shapes at seeds 1-3."""
    work = tmp_path_factory.mktemp("bundles")
    paths = contract.write_bundles(work / "contract")
    for name, (shape, seed) in BENCH.items():
        paths.setdefault(name, generate(shape, seed, work / name)[0])
    return paths


def every_probe_missed(shared, key, build, *args):
    """``files._once`` as if its table never held ``key``."""
    return build(*args or key)


def loaded(bundle_path):
    """What loading the bundle, and loading its scenario alone, builds that
    compares and prints by value (an ``ActivityChain`` does neither, so its
    ids and nodes stand for it), or the load's error."""
    try:
        bundle = load_bundle(bundle_path)
    except LoadError as exc:
        return str(exc)
    model = bundle.model
    scenario = bundle_path.parent / yaml.safe_load(bundle_path.read_text())["scenario"]
    return (bundle.graph, model.graph, model.repo, model.rules, model.ideal,
            model.chain.ids, model.chain.nodes, bundle.scenario, load_scenario(scenario))


@pytest.mark.parametrize(
    "name", sorted(set(contract.BUNDLES) - {contract.SCENARIO} | set(BENCH))
)
def test_a_shared_load_equals_one_that_builds_every_entry(name, bundles, monkeypatch):
    shared = loaded(bundles[name])
    monkeypatch.setattr(files, "_once", every_probe_missed)
    unshared = loaded(bundles[name])
    assert shared == unshared
    assert repr(shared) == repr(unshared)


# ``==`` holds between 1, 1.0 and true, and between 0, 0.0, -0.0 and false.
VALUES = (1, 1.0, True, "1", 0, 0.0, -0.0, False)
picks = st.lists(st.sampled_from(range(len(VALUES))), min_size=1, max_size=10)


def assert_shared_by_typed_value(found, values, chosen):
    """``found[i]`` was built from ``VALUES[chosen[i]]`` and holds it as
    ``values[i]``, with its type and sign; it is the object ``found[j]`` is
    exactly when both come from one of ``VALUES``."""
    assert [repr(value) for value in values] == [repr(VALUES[i]) for i in chosen]
    assert [type(value) for value in values] == [type(VALUES[i]) for i in chosen]
    for i, (built, pick) in enumerate(zip(found, chosen)):
        for other, other_pick in zip(found[:i], chosen):
            assert (other is built) == (other_pick == pick)


@given(chosen=picks)
@settings(max_examples=60, deadline=None)
def test_contexts_of_equal_values_of_other_types_stay_apart(chosen, tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "scenario.yaml"
    contexts = [{"parameter": "E", "attribute": "a", "value": VALUES[i]} for i in chosen]
    path.write_text(yaml.safe_dump({
        "version": 1, "kind": "scenario",
        "situations": [{"time": 0, "contexts": contexts}],
    }))
    ((_, listed),) = load_scenario(path)
    assert_shared_by_typed_value(listed, [ctx.value for ctx in listed], chosen)


@given(chosen=picks)
@settings(max_examples=60, deadline=None)
def test_patterns_of_equal_values_of_other_types_stay_apart(chosen):
    repo = load_repository({
        "fragments": [{"id": "F", "activities": [{"name": "x"}]}],
        "subgoals": [
            {"name": "G%d" % n, "entries": [{"value": [["E.a", VALUES[i]]], "fragment": "F"}]}
            for n, i in enumerate(chosen)
        ],
    })
    patterns = [entry.rows[0][0] for entry in repo.subgoals]
    assert_shared_by_typed_value(patterns, [p.pairs[0][1] for p in patterns], chosen)


def test_run_observe_builds_each_distinct_context_and_scope_once(bundles, monkeypatch):
    """Seed 1 lists 20 ideal contexts and 2,400 contexts in its 400
    situations, which hold 80 distinct ones; its 100 activities have 10
    distinct default scopes."""
    built = []
    monkeypatch.setattr(
        files, "AtomicContext", lambda *args: built.append(args) or AtomicContext(*args)
    )
    bundle = load_bundle(bundles["run-observe"])
    contexts = [*bundle.model.ideal.values()]
    contexts += [ctx for cs in bundle.scenario for ctx in cs.bindings.values()]
    assert len(contexts) == 2420
    assert len(built) == len({id(ctx) for ctx in contexts}) == 80
    scopes = {}
    for node in bundle.model.chain.nodes.values():
        scopes.setdefault(node.scope, set()).add(id(node.scope))
    assert len(scopes) == 10
    assert all(len(objects) == 1 for objects in scopes.values())


def test_no_table_outlives_its_load(bundles):
    first, second = (load_bundle(bundles["run-observe"]) for _ in range(2))

    def contexts(bundle):
        ideal = bundle.model.ideal.values()
        return {id(c) for c in ideal} | {
            id(c) for cs in bundle.scenario for c in cs.bindings.values()
        }

    assert first.scenario == second.scenario
    assert not contexts(first) & contexts(second)


def test_the_runner_groups_loaded_scopes_without_comparing_them(bundles, monkeypatch):
    model = load_bundle(bundles["run-adapt"]).model
    scopes = {id(node.scope) for node in model.chain.nodes.values()}
    assert len(scopes) == 8
    calls = Counter()
    equal, hashed = ScopeFilter.__eq__, ScopeFilter.__hash__
    monkeypatch.setattr(
        ScopeFilter, "__eq__", lambda scope, other: calls.update(["eq"]) or equal(scope, other)
    )
    monkeypatch.setattr(
        ScopeFilter, "__hash__", lambda scope: calls.update(["hash"]) or hashed(scope)
    )
    runner = chain_mod._Runner(model, [])
    assert calls["eq"] == 0 and calls["hash"] <= len(scopes)
    assert len({id(watch) for watch in runner.watches.values()}) == 8

    # Equal scopes built apart, as by hand, still share one watch.
    for node_id, node in model.chain.nodes.items():
        scope = ScopeFilter(
            frozenset(list(node.scope.relevant_parameters)),
            frozenset(list(node.scope.relevant_attributes)),
        )
        model.chain.nodes[node_id] = dataclasses.replace(node, scope=scope)
    assert len({id(node.scope) for node in model.chain.nodes.values()}) == 800
    runner = chain_mod._Runner(model, [])
    assert len({id(watch) for watch in runner.watches.values()}) == 8
