"""Acceptance gate: six end-to-end criteria, one pass/fail line each.

Each test records a single ``CRITERION n: PASS/FAIL`` verdict; conftest
prints the collected lines in the terminal summary so they are visible in
any pytest run. A failed assertion still fails the test normally.
"""

import dataclasses
import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from ctxflow.chain import run_instance
from ctxflow.cli import main as cli_main
from ctxflow.context import (
    AtomicContext,
    ContextState,
    ContextualSituation,
    ScopeFilter,
    catch_context,
)
from ctxflow.files import load_bundle
from ctxflow.graph import apply_dependencies, assign_values, instantiate
from ctxflow.metrics import CostParams, HalsteadCounts, execution_time, halstead
from ctxflow.petri import (
    check_bounded,
    check_home,
    check_liveness,
    check_reachable,
    explore,
    goal_marking,
    translate,
)
from ctxflow.query import Condition, Query, evaluate, parse_query

from oracles import diff_oracle, halstead_oracle, query_oracle
from test_chain import run_random_rewrites
from test_metrics import bare_model
from ctxflow.metrics import structural_metrics


VERDICTS = []


def _report(number, verdict, description):
    VERDICTS.append("CRITERION %d: %s - %s" % (number, verdict, description))


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        _report(number, "FAIL", description)
        raise
    _report(number, "PASS", description)


def ctx(parameter, attribute, value):
    return AtomicContext(parameter=parameter, attribute=attribute, value=value)


def test_criterion_1_kiosk_golden_run(kiosk_bundle):
    with criterion(1, "kiosk golden run: five adaptations, exact final order"):
        bundle = load_bundle(kiosk_bundle)
        started = time.monotonic()
        trace = run_instance(bundle.model, bundle.scenario)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert [(a.activity_id, a.action, a.fragment_id) for a in trace.actions] == [
            ("Patient Registration", "replace_role(Z)", None),
            (
                "Patient Medical Info Collection",
                "data_change(Patient Condition Serious)",
                None,
            ),
            ("Treatment", "add_after", "transfer_fragment"),
            ("Storage in Cloud", "reorder(L2->L3->L1)", None),
            ("Bill Payment", "replace_medium(cash)", None),
        ]
        assert trace.final_order == [
            "Patient Registration",
            "Patient Medical Info Collection",
            "Treatment",
            "Appointment Fixing",
            "Arrangement of Ambulance",
            "Transfer Patient",
            "Bill Payment",
            "Storage in Cloud",
        ]


def test_criterion_2_weather_diff():
    with criterion(2, "10:30->11:00 weather diff yields the exact change set"):
        old = ContextState.from_contexts(
            [
                ctx("Weather", "Status", "Sunny"),
                ctx("Watch", "Time", "10.30 am"),
                ctx("Healthcare_Employee", "Status", "Present"),
            ],
            630,
        )
        new = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "Rainy"), ctx("Watch", "Time", "11.00 am")],
            timestamp=660,
        )
        out = catch_context(list(new.bindings.values()), old, new.timestamp)
        assert out.parameters == ("Weather", "Watch")
        assert out.attributes == ("Weather.Status", "Watch.Time")
        assert out.bindings["Weather.Status"].value == "Rainy"
        assert out.bindings["Watch.Time"].value == "11.00 am"

        # The same situation leaves Patient Registration's state untouched:
        # none of its relevant contexts are mentioned.
        registration = ContextState.from_contexts(
            [ctx("Healthcare_Employee", "Status", "Present")], 630
        )
        scope = ScopeFilter(frozenset({"Healthcare_Employee"}), frozenset())
        covered = [c for c in new.bindings.values() if scope.covers(c)]
        assert covered == []
        assert catch_context(covered, registration, new.timestamp) is registration


def test_criterion_3_reasoning_examples():
    with criterion(3, "query examples: conjunction, NULL, addition, negation"):
        from test_query import SITUATION

        out = evaluate(
            parse_query("AND Resource WHERE parameter INSTANCE_OF Network"),
            SITUATION,
        )
        assert out.render() == (
            "Resource(BSNL_Network, Connectivity, =, Very Poor)"
            " AND Resource(Reliance_Network, Connectivity, =, Average)"
        )

        out = evaluate(
            parse_query(
                "AND Caregiver WHERE (attr Status = Present)"
                " AND (attr Expertise = Arthritis)"
            ),
            SITUATION,
        )
        assert out.render() == "NULL"

        out = evaluate(
            parse_query(
                "ADD Manpower(Healthcare_Assistant, Count, =, 10), "
                "Manpower(Healthcare_Assistant, Recruitment, =, 6)"
            ),
            (),
        )
        assert out.render() == "Manpower(Healthcare_Assistant, Count, =, 16)"

        text = "NOT Patient(X, Suffering, from, Malaria)"
        assert evaluate(parse_query(text), SITUATION).render() == text


def test_criterion_4_verification(kiosk_bundle):
    with criterion(4, "kiosk net: 1-bounded, live, unique goal dead marking"):
        net = translate(load_bundle(kiosk_bundle).model)
        started = time.monotonic()
        space = explore(net, limit=10 ** 5)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        assert not space.partial
        assert space.node_count < 10 ** 5
        assert check_bounded(space, k=1, net=net).bounded
        liveness = check_liveness(space, net)
        assert liveness.dead_transitions == ()
        goal = goal_marking(net)
        assert liveness.dead_markings == (goal,)
        reachable, witness = check_reachable(space, goal)
        assert reachable and len(witness) > 0
        assert check_home(space, goal)


def test_criterion_5_metrics():
    with criterion(5, "metrics: mcc_extra, noa_extra, execution time, Halstead"):
        for n in (1, 5, 50):
            assert structural_metrics(bare_model(n), n)["mcc_extra"] == 2
        assert structural_metrics(bare_model(5), 5)["noa_extra"] == 0
        assert execution_time(CostParams(n=5)) == 25
        for counts in ((3, 2, 6, 4), (4, 3, 11, 9), (1, 1, 1, 1), (17, 5, 80, 23)):
            got = halstead(HalsteadCounts(*counts))
            want = halstead_oracle(*counts)
            for key in ("length", "volume", "difficulty"):
                assert got[key] == pytest.approx(want[key], rel=1e-9)


def _random_situation(rng, timestamp):
    params = ("Weather", "Watch", "Patient", "Network")
    attrs = ("Status", "Time", "Level")
    values = ("A", "B", "C", 1, 2, "a", " A ", 1.0, True, float("nan"))
    seen = set()
    contexts = []
    for _ in range(rng.randint(0, 6)):
        p, a = rng.choice(params), rng.choice(attrs)
        if (p, a) in seen:
            continue
        seen.add((p, a))
        contexts.append(ctx(p, a, rng.choice(values)))
    return ContextualSituation.from_contexts(contexts, timestamp)


def _check_diff_vectors(rng, count):
    for _ in range(count):
        old_cs = _random_situation(rng, rng.randint(0, 5))
        state = ContextState.from_contexts(
            list(old_cs.bindings.values()), old_cs.timestamp
        )
        new = _random_situation(rng, rng.randint(0, 10))
        out = catch_context(list(new.bindings.values()), state, new.timestamp)
        expected = diff_oracle(new, state)
        if expected is None:
            assert out is state
        else:
            assert out.parameters == expected["parameters"]
            assert out.attributes == expected["attributes"]
            assert out.timestamp == expected["timestamp"]


def _check_fixpoint_permutations(kiosk_dir):
    bundle = load_bundle(kiosk_dir / "bundle.yaml")
    graph = bundle.graph
    assert len(graph.dependency_rules) <= 5
    state = ContextState.from_contexts(
        [ctx("Weather", "Status", "Rainy"), ctx("Network", "Status", "Available")], 1
    )
    activated = instantiate(graph, "Storage in Cloud", state)
    bound = assign_values(graph, activated, state.bindings)
    baseline = None
    for perm in itertools.permutations(graph.dependency_rules):
        got = {
            k: v.value
            for k, v in apply_dependencies(
                bound, activated, dataclasses.replace(graph, dependency_rules=perm)
            ).items()
        }
        if baseline is None:
            baseline = got
        assert got == baseline


def _check_query_oracle(rng, cases):
    categories = ("Resource", "Caregiver", "Season")
    subjects = ("BSNL_Network", "Reliance_Network", "Z1", "Z2", "Weather")
    attrs = ("Connectivity", "Status", "Expertise")
    values = ("Very Poor", "Average", "Present", "Absent", 3)

    def rand_pred():
        from ctxflow.query import ContextPredicate

        return ContextPredicate(
            category=rng.choice(categories),
            subject=rng.choice(subjects),
            attribute=rng.choice(attrs),
            connector="=",
            value=rng.choice(values),
        )

    def rand_query():
        kind = rng.choice(
            (
                "and_by_parameter",
                "and_cross_category",
                "and_conditional",
                "or_same_instance",
                "or_same_value",
            )
        )
        if kind == "and_by_parameter":
            return Query(
                kind,
                category=rng.choice(categories),
                target=rng.choice(("Network", "Z1", "Weather")),
            )
        if kind == "and_cross_category":
            return Query(
                kind, chain=(rng.choice(categories), rng.choice(categories))
            )
        if kind == "and_conditional":
            return Query(
                kind,
                category=rng.choice(categories),
                condition=Condition(
                    "leaf",
                    field="attr",
                    name=rng.choice(attrs),
                    cmp="=",
                    value=rng.choice(values),
                ),
            )
        if kind == "or_same_instance":
            return Query(
                kind,
                category=rng.choice(categories),
                instance=rng.choice(subjects),
                attribute=rng.choice(attrs),
            )
        return Query(
            kind,
            category=rng.choice(categories),
            attribute=rng.choice(attrs),
            value=rng.choice(values),
        )

    for _ in range(cases):
        cs = [rand_pred() for _ in range(rng.randint(0, 8))]
        q = rand_query()
        assert list(evaluate(q, cs).predicates) == query_oracle(q, cs)


def _check_cli_determinism(kiosk_bundle, tmp_path, capsys):
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", str(kiosk_bundle), "-o", str(run1)]) == 0
    assert cli_main(["run", str(kiosk_bundle), "-o", str(run2)]) == 0
    assert (run1 / "summary.json").read_bytes() == (run2 / "summary.json").read_bytes()
    assert (run1 / "trace.log").read_bytes() == (run2 / "trace.log").read_bytes()

    capsys.readouterr()
    assert cli_main(["verify", str(kiosk_bundle)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["verify", str(kiosk_bundle)]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)  # the report is well-formed JSON

    assert cli_main(["metrics", str(kiosk_bundle)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["metrics", str(kiosk_bundle)]) == 0
    assert capsys.readouterr().out == first


def test_criterion_6_property_suites(kiosk_dir, kiosk_bundle, tmp_path, capsys):
    with criterion(6, "property suites: rewrites, diff, fixpoint, query, CLI"):
        # (a) 10,000 random rewrites against the array-splice oracle.
        assert run_random_rewrites(seed=2024, sequences=500, ops_per_sequence=20) == (
            10000
        )
        # (b) 1,000 random diff vectors against the classification oracle.
        _check_diff_vectors(random.Random(99), 1000)
        # (c) dependency fixpoint is order-independent on the fixture graph.
        _check_fixpoint_permutations(kiosk_dir)
        # (d) query evaluator against the subset-enumeration oracle.
        _check_query_oracle(random.Random(7), 250)
        # (e) repeated CLI invocations produce byte-identical output.
        _check_cli_determinism(kiosk_bundle, tmp_path, capsys)
