"""The runner's walk against the rescanning oracle, plus structural guards.

The production runner resumes its walk at a cursor and keeps deferred
actions in a map by activity; ``oracles.run_instance_oracle`` rescans the
chain from its start on every step. Both must produce identical traces and
final orders.
"""

import dataclasses
import functools
import logging
import pathlib
import random
import re

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
    TraceEntry,
    run_instance,
)
from ctxflow.context import (
    AtomicContext,
    ContextState,
    ContextualSituation,
    ScopeFilter,
)
from ctxflow.errors import (
    ChainIntegrityError,
    IncompleteBindingError,
    UnknownContextError,
)
from ctxflow.files import load_bundle
from ctxflow.fragments import (
    FragmentActivity,
    FragmentRepository,
    ProcessFragment,
    SubgoalEntry,
    ThrowResult,
)
from ctxflow.graph import (
    AttributeNode,
    Composition,
    CompositeValue,
    ContextGraph,
    EntityNode,
    StateNodeDef,
    TimedValue,
    composite_from_pairs,
)

import oracles
from bundlegen import generate
from run import WORKLOADS

KIOSK = pathlib.Path(__file__).parent / "fixtures" / "kiosk" / "bundle.yaml"


# An evaluation's kind by whether it has a value, an action and a deferral.
KIND_OF = {
    (False, False, False): "no-change",
    (True, False, False): "no-rule",
    (True, True, False): "applied",
    (True, True, True): "deferred",
}


class AuditedRunner(oracles.CheckedRunner):
    """Asserts after every rewrite that the chain is whole and that the ids
    before ``resume``, what ran, are as they were, and at the end that the
    final order is the chain and every deferred action was applied exactly
    once."""

    def _apply(self, activity_id, rule, fragment, at=None):
        ran = self.chain.ids[:self.resume]
        super()._apply(activity_id, rule, fragment, at)
        assert self.chain.ids[:self.resume] == ran

    def run(self):
        trace = super().run()
        assert trace.final_order == self.chain.ids
        assert self.pending == {}
        entries = trace.entries
        for entry in entries:
            facts = (
                entry.value is not None,
                entry.action is not None,
                entry.deferred_until is not None,
            )
            if entry.kind == "deferred-applied":
                assert facts == (True, True, False)
            else:
                assert entry.kind == KIND_OF[facts]
        for i, deferred in enumerate(entries):
            if deferred.deferred_until is None:
                continue
            later = [
                e for e in entries[i + 1:] if e.activity_id == deferred.activity_id
            ]
            assert len(later) == 1
            (applied,) = later
            assert applied.kind == "deferred-applied"
            assert applied.deferred_until is None
            assert applied.timestamp >= deferred.deferred_until
            assert (applied.value, applied.fragment_id, applied.action) == (
                deferred.value, deferred.fragment_id, deferred.action
            )
        return trace


def run_checked(model, scenario):
    runner = AuditedRunner(model, scenario)
    trace = runner.run()
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


def assert_matches_oracle(model, scenario):
    got = outcome(run_checked, model, scenario)
    assert got == outcome(oracles.run_instance_oracle, model, scenario)
    return got


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
    for node in model.chain.nodes.values():
        chain.nodes[node.id] = dataclasses.replace(
            node, duration=rng.choice((0, 5, 15, 60))
        )
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
    """A chain whose rules span every action kind, with re-inserted ids.

    Fragment activities are named after chain activities or fresh names, so
    an inserted activity may reuse the id of one removed earlier. Reserve
    activities ``r*`` lead the chain and bypass themselves on their first
    run (their sub-goal ``orig`` selects no fragment) and are the favourite
    fragment names. Inserted activities carry no scope, so they just execute.
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
    scopes = {a: ScopeFilter(frozenset({entity_of[a]}), frozenset()) for a in ids}
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
                )
            )
    # Rules apply in list order, so they keep creation order. Shuffling a
    # copy spends the draws a shuffle of the rules would, so each seed's
    # ideal and scenario stay independent of how the rules are ordered.
    rng.shuffle(list(rules))
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
    return model, scenario


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_random_chains_match_oracle(seed):
    assert_matches_oracle(*random_model(random.Random(seed)))


def test_random_chains_cover_every_action():
    seen = set()
    ran = 0
    deferred = 0
    for seed in range(300):
        got = assert_matches_oracle(*random_model(random.Random(seed)))
        if got[0] == "ran":
            ran += 1
            seen.update(e.action.split("(")[0] for e in got[1] if e.action)
            deferred += sum(e.deferred_until is not None for e in got[1])
    assert seen == set(FRAGMENT_ACTIONS + PLAIN_ACTIONS)
    assert ran > 200
    assert deferred > 0


# -- selection by lookup against the scans -----------------------------------


def run_selecting_by_scans(model, scenario):
    with oracles.selecting_by_scans():
        return run_instance(model, scenario)


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    make=st.sampled_from([kiosk_variant, random_model]),
)
@settings(max_examples=300, deadline=None)
def test_lookups_select_as_the_scans_do(seed, make):
    model, scenario = make(random.Random(seed))
    assert outcome(run_selecting_by_scans, model, scenario) == outcome(
        run_instance, model, scenario
    )


def test_each_evaluation_normalizes_its_value_once(monkeypatch):
    """Fragment and rule selection share one key per evaluated value."""
    bundle = load_bundle(KIOSK)
    calls = []
    normalized = CompositeValue.normalized
    monkeypatch.setattr(
        CompositeValue, "normalized", lambda value: calls.append(value) or normalized(value)
    )
    trace = run_instance(bundle.model, bundle.scenario)
    assert calls == [e.value for e in trace.entries if e.value is not None]
    assert trace.actions


@pytest.mark.parametrize(
    "level", [logging.DEBUG, logging.INFO], ids=["debug", "info"]
)
def test_a_miss_renders_its_value_only_for_the_debug_log(monkeypatch, caplog, level):
    bundle = load_bundle(KIOSK.with_name("ideal-bundle.yaml"))
    rendered = []
    render = CompositeValue.render
    monkeypatch.setattr(
        CompositeValue, "render", lambda value: rendered.append(value) or render(value)
    )
    with caplog.at_level(level, logger="ctxflow"):
        trace = run_instance(bundle.model, bundle.scenario)
    misses = [e.value for e in trace.entries if e.value is not None and e.action is None]
    assert misses
    if level > logging.DEBUG:
        misses = []
    assert rendered == misses
    assert [r.getMessage() for r in caplog.records] == [
        "no adaptation rule matched value %s" % render(value) for value in misses
    ]


# -- the whole-chain check after every rewrite -------------------------------


def run_with_whole_chain_checks(model, scenario):
    return oracles.CheckedRunner(model, scenario).run()


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    make=st.sampled_from([kiosk_variant, random_model]),
)
@settings(max_examples=300, deadline=None)
def test_splice_local_checks_match_whole_chain_checks(seed, make):
    # Production checks each rewrite at its splice and the whole chain once
    # per run; the oracle checks the whole chain after every rewrite.
    model, scenario = make(random.Random(seed))
    assert outcome(run_with_whole_chain_checks, model, scenario) == outcome(
        run_instance, model, scenario
    )


# -- the progress guard ------------------------------------------------------


def inserting_chain(n, k):
    """``n`` scoped activities, each adding a ``k``-activity fragment after it."""
    ids = ["a%d" % i for i in range(n)]
    graph = ContextGraph.build(
        entities=[EntityNode("E")],
        attributes=[AttributeNode("E.s")],
        state_nodes=[StateNodeDef(a, ("E",), ("E.s",)) for a in ids],
    )
    bad = composite_from_pairs([("E.s", "bad")])
    fragment = ProcessFragment(
        "F", tuple(FragmentActivity("x%d" % j) for j in range(k))
    )
    nodes = [
        ActivityNode(
            id=a, sub_goal="s", scope=ScopeFilter(frozenset({"E"}), frozenset())
        )
        for a in ids
    ]
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(nodes),
        FragmentRepository((SubgoalEntry(1, "s", ((bad, "F"),)),), {"F": fragment}),
        tuple(
            AdaptationRule(a, bad, "F", Action("add_after"))
            for a in ids
        ),
        {"E.s": AtomicContext(parameter="E", attribute="s", value="good")},
    )
    scenario = [
        ContextualSituation.from_contexts(
            [AtomicContext(parameter="E", attribute="s", value="bad")], timestamp=0
        )
    ]
    return model, scenario


def test_growing_chain_does_not_trip_the_progress_guard():
    # 100 evaluations and 2,100 executions: more passes than a bound fixed
    # by the model's size and the scenario's length allows.
    model, scenario = inserting_chain(100, 20)
    trace = run_checked(model, scenario)
    assert len(trace.final_order) == 100 * 21
    assert trace.final_order[:3] == ["a0", "x0", "x1"]
    assert len(trace.actions) == 100


def test_stalled_runner_fails_the_progress_guard():
    class Stalled(chain_mod._Runner):
        def _evaluate(self, node, at):
            watch = self.watches[node.id]
            super()._evaluate(node, at)
            self.watches[node.id] = watch  # every pass evaluates it again
            watch.waiting += 1

    model, scenario = inserting_chain(3, 1)
    model = dataclasses.replace(model, rules=())
    with pytest.raises(ChainIntegrityError, match="failed to make progress"):
        Stalled(model, scenario).run()


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


def hints_seen(monkeypatch, model, scenario):
    """Run, and return the trace and, for every ``ActivityChain.position``
    call, the activity, whether the caller passed a position and whether it
    was right."""
    seen = []
    position = ActivityChain.position

    def recorded(self, activity_id, at=None):
        passed = at is not None
        right = passed and 0 <= at < len(self.ids) and self.ids[at] == activity_id
        seen.append((activity_id, passed, right))
        return position(self, activity_id, at)

    with monkeypatch.context() as patch:
        patch.setattr(ActivityChain, "position", recorded)
        return run_instance(model, scenario), seen


def test_the_walk_passes_each_rewrite_its_position(monkeypatch):
    # Kiosk defers nothing. Its add_after finds its target, and its reorder
    # its centre and then its window's start.
    bundle = load_bundle(KIOSK)
    _, seen = hints_seen(monkeypatch, bundle.model, bundle.scenario)
    assert [(passed, right) for _, passed, right in seen] == [(True, True)] * 3


def test_only_a_deferred_action_looks_its_target_up(monkeypatch):
    looked_up = 0
    for seed in range(40):
        trace, seen = hints_seen(monkeypatch, *kiosk_variant(random.Random(seed)))
        deferred = {e.activity_id for e in trace.entries if e.deferred_until is not None}
        for activity_id, passed, right in seen:
            assert right if passed else activity_id in deferred
            looked_up += not passed
    assert looked_up > 0


def test_only_a_run_with_a_deferral_looks_for_due_ones(monkeypatch):
    pending = []
    apply_due_pending = chain_mod._Runner._apply_due_pending

    def counted(self):
        pending.append(len(self.pending))
        return apply_due_pending(self)

    monkeypatch.setattr(chain_mod._Runner, "_apply_due_pending", counted)
    bundle = kiosk()
    assert len(run_instance(bundle.model, bundle.scenario).actions) == 5
    assert pending == []
    deferred = 0
    for seed in range(40):
        trace = run_instance(*kiosk_variant(random.Random(seed)))
        deferred += sum(e.deferred_until is not None for e in trace.entries)
    assert deferred > 0
    assert pending and all(pending)


def test_the_whole_chain_is_checked_when_built_and_once_per_run(monkeypatch):
    calls = []
    validate = ActivityChain.validate

    def counted(self):
        calls.append(list(self.ids))
        return validate(self)

    monkeypatch.setattr(ActivityChain, "validate", counted)
    bundle = load_bundle(KIOSK)
    assert calls == [bundle.model.chain.ids]
    for _ in range(2):
        trace = run_instance(bundle.model, bundle.scenario)
        assert len(trace.actions) == 5
        assert calls[1:] == [trace.final_order]
        del calls[1:]


# -- trace kinds -------------------------------------------------------------


def kiosk_with_weather_delay(tmp_path):
    """A kiosk copy whose ``Weather.Status`` has a 30-minute green link."""
    link = "  - {name: Weather.Status}\n"
    for path in KIOSK.parent.iterdir():
        text = path.read_text()
        if path.name == "graph.yaml":
            assert text.count(link) == 1
            text = text.replace(link, "  - {name: Weather.Status, delay: 30}\n")
        (tmp_path / path.name).write_text(text)
    return load_bundle(tmp_path / "bundle.yaml")


def test_kiosk_trace_kinds():
    bundle = load_bundle(KIOSK)
    trace = run_instance(bundle.model, bundle.scenario)
    assert [e.kind for e in trace.entries] == ["applied"] * 5
    bundle = load_bundle(KIOSK.parent / "ideal-bundle.yaml")
    trace = run_instance(bundle.model, bundle.scenario)
    assert [e.kind for e in trace.entries] == ["no-rule"] * 5


def test_a_deferred_action_is_traced_at_its_evaluation_and_when_it_applies(tmp_path):
    bundle = kiosk_with_weather_delay(tmp_path)
    trace = run_instance(bundle.model, bundle.scenario)
    assert [(e.kind, e.timestamp, e.activity_id, e.deferred_until) for e in trace.entries] == [
        ("applied", 840, "Patient Registration", None),
        ("applied", 840, "Patient Medical Info Collection", None),
        ("applied", 840, "Treatment", None),
        ("deferred", 840, "Storage in Cloud", 870),
        ("applied", 840, "Bill Payment", None),
        ("deferred-applied", 870, "Storage in Cloud", None),
    ]
    assert trace.entries[5].action == trace.entries[3].action == "reorder(L2->L3->L1)"


def test_an_empty_state_is_traced_as_no_change():
    model = load_bundle(KIOSK).model
    bare = ProcessModel(model.graph, model.chain, model.repo, model.rules, {})
    trace = run_instance(bare, [])
    assert [(e.kind, e.value) for e in trace.entries] == [("no-change", None)] * 5


@pytest.mark.parametrize("name", ["kiosk", "run-adapt"])
def test_a_run_shares_the_loaded_model_and_leaves_it_alone(name, tmp_path):
    """The runner copies only the id list and the node map: the loaded
    activities are shared, immutable values, and a run that rewrites its
    own chain leaves the model's ids and activities as they were."""
    if name == "kiosk":
        bundle = load_bundle(KIOSK)
    else:
        generate(WORKLOADS[name].shape, 3, tmp_path)
        bundle = load_bundle(tmp_path / "bundle.yaml")
    chain = bundle.model.chain
    ids, nodes = chain.ids, chain.nodes
    before_ids, before_nodes = list(ids), dict(nodes)
    trace = run_instance(bundle.model, bundle.scenario)
    kinds = {e.action.split("(")[0] for e in trace.actions}
    assert len(kinds) == {"kiosk": 5, "run-adapt": 8}[name]
    assert bundle.model.chain is chain
    assert chain.ids is ids and ids == before_ids
    assert chain.nodes is nodes and nodes == before_nodes
    assert all(nodes[a] is node for a, node in before_nodes.items())
    node = nodes[before_ids[0]]
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, getattr(node, field.name))


# -- the records a run builds are never changed once built ------------------

# Plain (unfrozen) records: the runner builds them per situation or per
# evaluation, where a frozen dataclass's construction cost shows.
PLAIN_RECORDS = (
    TimedValue, CompositeValue, ThrowResult, TraceEntry, ContextualSituation,
    ContextState,
)


def held(record):
    """The object each field of ``record`` holds, with a dict's items."""
    out = []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        out.append((value, list(value.items()) if isinstance(value, dict) else None))
    return out


def assert_unchanged(records):
    for record, was in records:
        now = held(record)
        assert all(a is b for (a, _), (b, _) in zip(now, was)), record
        assert [items for _, items in now] == [items for _, items in was], record


def recording_builds(monkeypatch):
    """Each plain record built from now on, with what its fields held then."""
    built = []
    for cls in PLAIN_RECORDS:
        def recorded(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append((self, held(self)))
        monkeypatch.setattr(cls, "__init__", recorded)
    return built


def small_generated(name, tmp_path):
    shape = dataclasses.replace(WORKLOADS[name].shape, **{
        "run-adapt": dict(activities=48),
        "run-observe": dict(activities=20, situations=60, dependency_rules=30),
    }[name])
    bundle, _ = generate(shape, 5, tmp_path)
    return load_bundle(bundle)


def bundle_named(name, tmp_path):
    if name == "kiosk":
        return load_bundle(KIOSK)
    if name == "kiosk-delay":
        return kiosk_with_weather_delay(tmp_path)
    return small_generated(name, tmp_path)


@pytest.mark.parametrize("name", ["kiosk", "kiosk-delay", "run-adapt", "run-observe"])
def test_a_run_changes_no_record_once_built(name, tmp_path, monkeypatch):
    """Situations, states, timed and composite values, thrown results and
    trace entries are plain records, not frozen ones: after a run, each
    one built during it, and each the loaded bundle holds, still holds in
    every field the object it was built with."""
    bundle = bundle_named(name, tmp_path)
    loaded = [(cs, held(cs)) for cs in bundle.scenario]
    loaded += [(rule.value_pattern, held(rule.value_pattern)) for rule in bundle.model.rules]
    loaded += [
        (pattern, held(pattern))
        for entry in bundle.model.repo.subgoals
        for pattern, _ in entry.rows
    ]
    built = recording_builds(monkeypatch)
    trace = run_instance(bundle.model, bundle.scenario)
    assert [entry for entry, _ in built if type(entry) is TraceEntry] == trace.entries
    kinds = {type(record) for record, _ in built}
    assert kinds >= {TimedValue, CompositeValue, ThrowResult, TraceEntry, ContextState}
    assert_unchanged(built)
    assert_unchanged(loaded)


def apply_dependencies_by_oracle(bound, activated, graph, fired):
    """``oracles.apply_dependencies_by_scans``, with each call that changed a
    binding counted in ``fired``."""
    out = oracles.apply_dependencies_by_scans(bound, activated, graph)

    def pairs(timed_values):
        return {attr: (timed.value, timed.delay) for attr, timed in timed_values.items()}

    fired[0] += pairs(out) != pairs(bound)
    return out


@pytest.mark.parametrize("name", ["kiosk", "kiosk-delay", "run-observe"])
def test_whole_runs_fire_dependencies_as_the_oracle_does(name, tmp_path, monkeypatch):
    """A run with the indexed fixpoint and one with the scanning oracle in
    its place give the same trace entries and final order."""
    bundle = bundle_named(name, tmp_path)
    got = outcome(run_instance, bundle.model, bundle.scenario)
    assert got[0] == "ran"
    fired = [0]
    monkeypatch.setattr(
        chain_mod, "apply_dependencies",
        functools.partial(apply_dependencies_by_oracle, fired=fired),
    )
    assert outcome(run_instance, bundle.model, bundle.scenario) == got
    assert fired[0] > 0  # rules fired, so the two runs had a fixpoint to agree on


def test_a_changed_record_is_seen(monkeypatch):
    built = recording_builds(monkeypatch)
    key = object()
    value = TimedValue("v", 0, key)
    bindings = {}
    state = ContextState((), (), 1, bindings)
    assert [record for record, _ in built] == [value, state]
    assert_unchanged(built)
    value.key = object()
    with pytest.raises(AssertionError):
        assert_unchanged(built)
    value.key = key
    assert_unchanged(built)
    bindings["E.a"] = None
    with pytest.raises(AssertionError):
        assert_unchanged(built)


# -- one evaluation per state and state-node shape ---------------------------


def counting_compositions(monkeypatch):
    """The number of ``compose_value`` calls from now on, as a one-item list."""
    calls = [0]
    compose = chain_mod.compose_value

    def counted(bound, node):
        calls[0] += 1
        return compose(bound, node)

    monkeypatch.setattr(chain_mod, "compose_value", counted)
    return calls


def assert_evaluates_as_afresh(model, scenario):
    """The run, and the run that evaluates every activity afresh, give the
    same outcome; that outcome is returned."""
    got = outcome(run_instance, model, scenario)
    assert got == outcome(oracles.run_evaluating_afresh, model, scenario)
    return got


@pytest.mark.parametrize("name", ["kiosk", "kiosk-delay"])
def test_kiosk_evaluates_as_afresh(name, tmp_path):
    bundle = bundle_named(name, tmp_path)
    assert assert_evaluates_as_afresh(bundle.model, bundle.scenario)[0] == "ran"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_shapes_evaluate_as_afresh(name, seed, tmp_path):
    generate(WORKLOADS[name].shape, seed, tmp_path)
    bundle = load_bundle(tmp_path / "bundle.yaml")
    assert assert_evaluates_as_afresh(bundle.model, bundle.scenario)[0] == "ran"


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    make=st.sampled_from([kiosk_variant, random_model]),
)
@settings(max_examples=200, deadline=None)
def test_random_chains_evaluate_as_afresh(seed, make):
    assert_evaluates_as_afresh(*make(random.Random(seed)))


WIDE = ScopeFilter(frozenset({"E"}), frozenset())
NARROW = ScopeFilter(frozenset(), frozenset({"E.a", "E.b"}))
AB = ("E.a", "E.b")
SHAPES = {
    "and": (AB, Composition("AND", AB)),
    "or": (AB, Composition("OR", AB)),
    "reordered": (AB, Composition("AND", AB[::-1])),
    "mapped": (AB + ("E.c",), Composition("AND", AB)),
}
# Activities named ``<shape>-<n>``, on the wide scope unless in ``NARROWED``.
SHARED_SCOPE_CHAINS = {
    "compositions": [
        "and-1", "or-1", "and-2", "and-3", "reordered-1", "or-2", "and-4",
        "reordered-2", "reordered-3", "and-5", "or-3", "or-4",
    ],
    "mapped-attributes": [
        "and-1", "mapped-1", "mapped-2", "and-2", "and-3", "mapped-3", "and-4",
        "mapped-4", "and-5",
    ],
    "narrower-scope": [
        "and-1", "and-2", "and-3", "and-4", "or-1", "and-5", "and-6", "and-7",
    ],
}
NARROWED = {"and-2", "and-3", "and-6"}
Y = composite_from_pairs([("E.a", "y"), ("E.b", "y")])
# Each rule keyed by activity: reused values must still select by activity.
SHARED_SCOPE_RULES = {
    "and-2": (None, Action("data_change", data=("d",))),
    "and-3": ("F", Action("add_after")),
    "and-5": (None, Action("reorder", order=("L2", "L3", "L1"))),
    "reordered-1": ("F", Action("add_before")),
    "reordered-2": (None, Action("bypass")),
    "mapped-1": (None, Action("replace_role", role="R")),
    "mapped-2": (None, Action("bypass")),
    "or-1": (None, Action("replace_medium", medium="M")),
}


def shared_scope_model(name, delay):
    """Activities that share a scope but differ in composition or mapped
    attributes, or share a shape but not a scope, under situations that
    change both ``E.a`` and ``E.b`` every 12 minutes and bind ``E.c`` as the
    ideal does, which only the wide scope covers; ``delay`` is ``E.b``'s.

    A value of one state under ``and`` and under ``reordered`` normalizes to
    one key, so both throw fragment ``F`` on sub-goal ``s``; they differ in
    their pairs' order only.
    """
    ids = SHARED_SCOPE_CHAINS[name]
    shape = {a: SHAPES[a.rsplit("-", 1)[0]] for a in ids}
    graph = ContextGraph.build(
        entities=[EntityNode("E")],
        attributes=[
            AttributeNode("E.a"), AttributeNode("E.b", delay=delay), AttributeNode("E.c"),
        ],
        state_nodes=[StateNodeDef(a, ("E",), *shape[a]) for a in ids],
    )
    nodes = [
        ActivityNode(
            id=a, sub_goal="s" if a in ("and-3", "reordered-1") else "t",
            scope=NARROW if a in NARROWED else WIDE, duration=5,
        )
        for a in ids
    ]
    fragment = ProcessFragment("F", (FragmentActivity("x"),))
    repo = FragmentRepository(
        (SubgoalEntry(1, "s", ((Y, "F"),)), SubgoalEntry(2, "t")), {"F": fragment}
    )
    pattern = {op: dataclasses.replace(Y, op=op) for op in ("AND", "OR")}
    rules = tuple(
        AdaptationRule(a, pattern[shape[a][1].op], fragment_id, action)
        for a, (fragment_id, action) in SHARED_SCOPE_RULES.items()
        if a in shape
    )

    def context(attr, value):
        return AtomicContext(parameter="E", attribute=attr, value=value)

    ideal = {q: context(q[2:], v) for q, v in (("E.a", "x"), ("E.b", "x"), ("E.c", "z"))}
    scenario = [
        ContextualSituation.from_contexts(
            [context("a", value), context("b", value), context("c", "z")],
            timestamp=t,
        )
        for t, value in zip(range(0, 60, 12), "yxyxy")
    ]
    model = ProcessModel(graph, ActivityChain.from_nodes(nodes), repo, rules, ideal)
    return model, scenario


@pytest.mark.parametrize("delay", [0, 30])
@pytest.mark.parametrize("name", sorted(SHARED_SCOPE_CHAINS))
def test_shared_scopes_evaluate_as_afresh(name, delay, monkeypatch):
    model, scenario = shared_scope_model(name, delay)
    calls = counting_compositions(monkeypatch)
    got = outcome(run_instance, model, scenario)
    kept = calls[0]
    assert got == outcome(oracles.run_evaluating_afresh, model, scenario)
    kind, entries, _ = got
    assert kind == "ran" and any(e.action for e in entries)
    # The fresh run composed once per activity, the production run less.
    assert calls[0] - kept == len(model.chain)
    assert 0 < kept < len(model.chain)


# (first node, second node, situation, error, message): the first node
# evaluates the state, the second fails on it.
FAILING_SECOND = {
    "unbound-in-composition": (
        (("E",), ("E.a",)), (("E",), AB), {"E.a": "y"}, IncompleteBindingError,
        "attribute 'E.b' is unbound in composition of 'second'",
    ),
    "unlinked-attribute": (
        (("E",), AB, Composition("AND", ("E.a",))), (("E",), ("E.a",)),
        {"E.a": "y", "E.b": "y"}, UnknownContextError,
        "attribute 'E.b' of state 'second' has no blue link",
    ),
    "unlinked-parameter": (
        (("E", "F"), ("E.a",)), (("E",), ("E.a",)), {"E.a": "y", "F.a": "y"},
        UnknownContextError, "parameter 'F' of state 'second' has no red link",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILING_SECOND))
def test_an_error_after_a_kept_value_names_its_own_activity(case, monkeypatch):
    """Two activities share a state: the first is evaluated and its value
    kept, and the second, of another shape, fails on the same state."""
    first, second, situation, error, message = FAILING_SECOND[case]
    graph = ContextGraph.build(
        entities=[EntityNode("E"), EntityNode("F")],
        attributes=[AttributeNode(q) for q in ("E.a", "E.b", "F.a")],
        state_nodes=[StateNodeDef("first", *first), StateNodeDef("second", *second)],
    )
    scope = ScopeFilter(frozenset({"E", "F"}), frozenset())
    model = ProcessModel(
        graph,
        ActivityChain.from_nodes(
            [ActivityNode(a, sub_goal="t", scope=scope) for a in ("first", "second")]
        ),
        FragmentRepository((SubgoalEntry(1, "t"),), {}),
        (),
        {q: AtomicContext(parameter="E", attribute=q[2:], value="x") for q in AB},
    )
    scenario = [
        ContextualSituation.from_contexts(
            [
                AtomicContext(parameter=q[0], attribute=q[2:], value=v)
                for q, v in situation.items()
            ],
            timestamp=0,
        )
    ]
    calls = counting_compositions(monkeypatch)
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        run_instance(model, scenario)
    assert calls[0] == 1 + (error is IncompleteBindingError)
    assert outcome(run_instance, model, scenario) == outcome(
        oracles.run_evaluating_afresh, model, scenario
    )


@pytest.mark.parametrize(
    "name, evaluations, activities",
    [("run-adapt", 8, 800), ("run-observe", 90, 100)],
)
def test_each_state_is_evaluated_once_per_shape(
    name, evaluations, activities, tmp_path, monkeypatch
):
    """``run-adapt``'s 800 activities share 8 states, one per scope, under 8
    shapes; of ``run-observe``'s 100, 10 find their scope's state evaluated
    already (seed 1)."""
    generate(WORKLOADS[name].shape, 1, tmp_path)
    bundle = load_bundle(tmp_path / "bundle.yaml")
    calls = counting_compositions(monkeypatch)
    trace = run_instance(bundle.model, bundle.scenario)
    assert sum(e.value is not None for e in trace.entries) == activities
    assert calls == [evaluations]
