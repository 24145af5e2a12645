"""Tests for the three-level context graph and its value computation."""

import dataclasses
import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlegen import Shape, generate
from ctxflow import chain as chain_mod
from ctxflow.chain import ActivityChain, ActivityNode, ProcessModel, run_instance
from ctxflow.context import (
    AtomicContext,
    ContextState,
    ContextualSituation,
    ScopeFilter,
    normalize_value,
)
from ctxflow.errors import (
    DependencyConflictError,
    DependencyCycleError,
    IncompleteBindingError,
    UnknownContextError,
    UnobservedAttributeError,
)
from ctxflow.files import load_bundle
from ctxflow.fragments import FragmentRepository, SubgoalEntry
from ctxflow.graph import (
    AttributeNode,
    Composition,
    CompositeValue,
    ContextGraph,
    DependencyRule,
    EntityNode,
    EntityRelation,
    RulePattern,
    StateNodeDef,
    TimedValue,
    apply_dependencies,
    assign_values,
    compose_value,
    composite_from_pairs,
    instantiate,
    validate_graph,
)

import oracles


def small_graph():
    return ContextGraph.build(
        entities=[
            EntityNode("Weather", "external"),
            EntityNode("Network"),
            EntityNode("Online_Payment"),
        ],
        attributes=[
            AttributeNode("Weather.Status"),
            AttributeNode("Network.Status"),
            AttributeNode("Online_Payment.Status", derivation="derived"),
        ],
        relations=[EntityRelation("Weather", "Network")],
        dependency_rules=[
            DependencyRule(
                "partial",
                (RulePattern("Weather.Status", "Rainy"),),
                RulePattern("Network.Status", "Unavailable"),
            ),
            DependencyRule(
                "total",
                (RulePattern("Network.Status", "Unavailable"),),
                RulePattern("Online_Payment.Status", "Not_Possible"),
            ),
            DependencyRule(
                "total",
                (RulePattern("Network.Status", "Available"),),
                RulePattern("Online_Payment.Status", "Possible"),
            ),
        ],
        state_nodes=[
            StateNodeDef(
                "Bill Payment",
                parameters=("Network", "Online_Payment"),
                attributes=("Network.Status", "Online_Payment.Status"),
            ),
            StateNodeDef(
                "Storage in Cloud",
                parameters=("Weather", "Network"),
                attributes=("Weather.Status", "Network.Status"),
            ),
        ],
    )


def with_rules(rules):
    """A graph holding only the dependency rules ``rules``: the fixpoint
    reads its rules, and their index, from a graph."""
    return ContextGraph.build([], [], dependency_rules=rules)


def state_of(contexts, timestamp=1):
    return ContextState.from_contexts(contexts, timestamp)


def ctx(p, a, v):
    return AtomicContext(parameter=p, attribute=a, value=v)


class TestStructureValidation:
    def test_valid_graph_has_no_findings(self):
        assert validate_graph(small_graph()).ok

    def test_attribute_of_undeclared_entity(self):
        g = ContextGraph.build(
            entities=[EntityNode("Weather")],
            attributes=[AttributeNode("Ghost.Status")],
        )
        assert "unknown-entity" in validate_graph(g).codes()

    def test_total_rule_on_direct_attribute(self):
        g = ContextGraph.build(
            entities=[EntityNode("Network")],
            attributes=[AttributeNode("Network.Status")],
            dependency_rules=[
                DependencyRule(
                    "total",
                    (RulePattern("Network.Status", "x"),),
                    RulePattern("Network.Status", "y"),
                )
            ],
        )
        assert "total-rule-target" in validate_graph(g).codes()

    def test_state_node_with_unmapped_attribute(self):
        g = ContextGraph.build(
            entities=[EntityNode("Weather")],
            attributes=[AttributeNode("Weather.Status")],
            state_nodes=[
                StateNodeDef("A", ("Weather",), ("Weather.Temperature",))
            ],
        )
        assert "unknown-attribute" in validate_graph(g).codes()

    def test_composition_outside_node_scope(self):
        g = ContextGraph.build(
            entities=[EntityNode("Weather")],
            attributes=[AttributeNode("Weather.Status"), AttributeNode("Weather.Wind")],
            state_nodes=[
                StateNodeDef(
                    "A",
                    ("Weather",),
                    ("Weather.Status",),
                    composition=Composition("AND", ("Weather.Wind",)),
                )
            ],
        )
        assert "composition-scope" in validate_graph(g).codes()

    def test_negative_green_link_delay_is_refused(self):
        # Bound values take their delays from here unchecked.
        with pytest.raises(ValueError, match="green-link delay must be >= 0"):
            AttributeNode("E.a", delay=-1)

    def test_relation_cardinality_checked(self):
        with pytest.raises(ValueError):
            EntityRelation("A", "B", cardinality="many")


class TestInstantiation:
    def test_empty_state_gives_empty_instance(self):
        g = small_graph()
        activity = "Bill Payment"
        s = state_of([])
        assert instantiate(g, activity, s) is None

    def test_activates_the_link_image_of_the_state(self):
        g = small_graph()
        activity = "Storage in Cloud"
        s = state_of(
            [ctx("Weather", "Status", "Rainy"), ctx("Network", "Status", "Unavailable")]
        )
        assert instantiate(g, activity, s) == frozenset(
            {"Weather.Status", "Network.Status"}
        )

    def test_unknown_activity_raises(self):
        g = small_graph()
        activity = "Nope"
        s = state_of([ctx("Weather", "Status", "Rainy")])
        with pytest.raises(UnknownContextError):
            instantiate(g, activity, s)

    def test_unmapped_parameter_raises(self):
        g = small_graph()
        activity = "Bill Payment"
        s = state_of([ctx("Weather", "Status", "Rainy")])
        with pytest.raises(UnknownContextError):
            instantiate(g, activity, s)


class TestAssignValues:
    def test_direct_attribute_needs_observation(self):
        g = small_graph()
        activity = "Storage in Cloud"
        s = state_of([ctx("Weather", "Status", "Rainy")])
        with pytest.raises(UnobservedAttributeError):
            assign_values(g, instantiate(g, activity, s), {})

    def test_raw_value_picks_up_green_link_delay(self):
        g = ContextGraph.build(
            entities=[EntityNode("Receptionist", "role")],
            attributes=[AttributeNode("Receptionist.Availability", delay=30)],
            state_nodes=[
                StateNodeDef("A", ("Receptionist",), ("Receptionist.Availability",))
            ],
        )
        activity = "A"
        s = state_of([ctx("Receptionist", "Availability", "11.00 am")])
        bound = assign_values(g, instantiate(g, activity, s), s.bindings)
        assert bound["Receptionist.Availability"].delay == 30

    def test_derived_attributes_are_skipped(self):
        g = small_graph()
        activity = "Bill Payment"
        s = state_of(
            [ctx("Network", "Status", "Unavailable"),
             ctx("Online_Payment", "Status", "Not_Possible")]
        )
        bound = assign_values(g, instantiate(g, activity, s), s.bindings)
        assert "Online_Payment.Status" not in bound

    def test_bound_value_carries_its_context_key(self):
        g = small_graph()
        s = state_of([ctx("Network", "Status", " unavailable ")])
        bound = assign_values(g, instantiate(g, "Bill Payment", s), s.bindings)
        timed = bound["Network.Status"]
        assert timed.value == " unavailable "
        assert timed.key is s.bindings["Network.Status"].key == "unavailable"


class TestDependencies:
    def evaluate(self, rules_order=None):
        g = small_graph()
        activity = "Bill Payment"
        s = state_of(
            [ctx("Network", "Status", "Unavailable"),
             ctx("Online_Payment", "Status", "Not_Possible")]
        )
        activated = instantiate(g, activity, s)
        bound = assign_values(g, activated, s.bindings)
        if rules_order is not None:
            g = with_rules(rules_order)
        return apply_dependencies(bound, activated, g)

    def test_total_rule_derives_value(self):
        bound = self.evaluate()
        assert bound["Online_Payment.Status"].value == "Not_Possible"

    def test_fixpoint_is_order_independent(self):
        g = small_graph()
        baseline = self.evaluate()
        for perm in itertools.permutations(g.dependency_rules):
            got = self.evaluate(perm)
            assert {k: v.value for k, v in got.items()} == {
                k: v.value for k, v in baseline.items()
            }

    def test_partial_rule_overwrites_observation(self):
        g = small_graph()
        activity = "Storage in Cloud"
        s = state_of(
            [ctx("Weather", "Status", "Rainy"), ctx("Network", "Status", "Available")]
        )
        activated = instantiate(g, activity, s)
        bound = assign_values(g, activated, s.bindings)
        out = apply_dependencies(bound, activated, g)
        assert out["Network.Status"].value == "Unavailable"
        assert bound["Network.Status"].value == "Available"

    def test_rule_with_an_inactive_target_does_not_fire(self):
        g = small_graph()
        activity = "Storage in Cloud"
        s = state_of([ctx("Weather", "Status", "Rainy")])
        activated = instantiate(g, activity, s)
        bound = assign_values(g, activated, s.bindings)
        assert apply_dependencies(bound, activated, g) == bound

    def test_derived_delay_is_max_of_antecedents(self):
        g = ContextGraph.build(
            entities=[EntityNode("Receptionist", "role"), EntityNode("Desk")],
            attributes=[
                AttributeNode("Receptionist.Availability", delay=30),
                AttributeNode("Desk.Status", derivation="derived"),
            ],
            dependency_rules=[
                DependencyRule(
                    "total",
                    (RulePattern("Receptionist.Availability", "Soon"),),
                    RulePattern("Desk.Status", "Staffed"),
                )
            ],
            state_nodes=[
                StateNodeDef(
                    "A",
                    ("Receptionist", "Desk"),
                    ("Receptionist.Availability", "Desk.Status"),
                )
            ],
        )
        activity = "A"
        s = state_of(
            [ctx("Receptionist", "Availability", "Soon"), ctx("Desk", "Status", "x")]
        )
        activated = instantiate(g, activity, s)
        bound = assign_values(g, activated, s.bindings)
        out = apply_dependencies(bound, activated, g)
        assert out["Desk.Status"].delay == 30

    def test_antecedents_and_consequents_compare_normalized(self):
        g = small_graph()
        s = state_of([ctx("Network", "Status", "  UNAVAILABLE")])
        activated = frozenset({"Network.Status", "Online_Payment.Status"})
        bound = assign_values(g, activated, s.bindings)
        out = apply_dependencies(bound, activated, g)
        derived = out["Online_Payment.Status"]
        assert (derived.value, derived.key) == ("Not_Possible", "not_possible")
        agreeing = g.dependency_rules + (
            DependencyRule(
                "total",
                (RulePattern("Network.Status", "unavailable"),),
                RulePattern("Online_Payment.Status", " not_possible "),
            ),
        )
        assert apply_dependencies(bound, activated, with_rules(agreeing))[
            "Online_Payment.Status"
        ].key == "not_possible"

    def test_conflicting_rules_raise(self):
        g = small_graph()
        conflicting = g.dependency_rules + (
            DependencyRule(
                "total",
                (RulePattern("Network.Status", "Unavailable"),),
                RulePattern("Online_Payment.Status", "Possible"),
            ),
        )
        with pytest.raises(DependencyConflictError):
            self.evaluate(conflicting)

    def test_oscillating_rules_hit_the_cap(self):
        g = ContextGraph.build(
            entities=[EntityNode("E")],
            attributes=[AttributeNode("E.a"), AttributeNode("E.b")],
            state_nodes=[StateNodeDef("A", ("E",), ("E.a", "E.b"))],
        )
        rules = (
            DependencyRule("partial", (RulePattern("E.a", 1),), RulePattern("E.b", 2)),
            DependencyRule("partial", (RulePattern("E.b", 2),), RulePattern("E.a", 3)),
            DependencyRule("partial", (RulePattern("E.a", 3),), RulePattern("E.b", 4)),
            DependencyRule("partial", (RulePattern("E.b", 4),), RulePattern("E.a", 1)),
            DependencyRule("partial", (RulePattern("E.a", 1), RulePattern("E.b", 4)),
                           RulePattern("E.b", 2)),
        )
        activity = "A"
        s = state_of([ctx("E", "a", 1), ctx("E", "b", 0)])
        activated = instantiate(g, activity, s)
        bound = assign_values(g, activated, s.bindings)
        with pytest.raises(DependencyCycleError):
            apply_dependencies(bound, activated, with_rules(rules))

    def test_cycle_cap_counts_rules_whose_target_is_not_activated(self):
        # Four rules oscillate on E.a and E.b; three more target E.c, which
        # is not activated, and never fire. The cap still counts all seven
        # rules: 7 rules x 2 activated attributes + 1 = 15 passes, not the
        # 4 x 2 + 1 = 9 of the live rules alone.
        g = ContextGraph.build(
            entities=[EntityNode("E")],
            attributes=[AttributeNode(q) for q in ("E.a", "E.b", "E.c")],
            state_nodes=[StateNodeDef("A", ("E",), ("E.a", "E.b", "E.c"))],
        )
        rules = (
            DependencyRule("partial", (RulePattern("E.c", 0),), RulePattern("E.c", 1)),
            DependencyRule("partial", (RulePattern("E.b", 0),), RulePattern("E.a", 1)),
            DependencyRule("partial", (RulePattern("E.a", 1),), RulePattern("E.b", 1)),
            DependencyRule("partial", (RulePattern("E.a", 0),), RulePattern("E.c", 2)),
            DependencyRule("partial", (RulePattern("E.b", 1),), RulePattern("E.a", 0)),
            DependencyRule("partial", (RulePattern("E.a", 0),), RulePattern("E.b", 0)),
            DependencyRule("partial", (RulePattern("E.a", 1),), RulePattern("E.c", 3)),
        )
        s = state_of([ctx("E", "a", 0), ctx("E", "b", 0)])
        activated = instantiate(g, "A", s)
        assert activated == {"E.a", "E.b"}
        bound = assign_values(g, activated, s.bindings)
        with pytest.raises(DependencyCycleError) as raised:
            apply_dependencies(bound, activated, with_rules(rules))
        assert str(raised.value) == "dependency rules did not stabilise within 15 passes"
        with pytest.raises(DependencyCycleError) as expected:
            oracles.apply_dependencies_oracle(bound, activated, rules)
        assert str(expected.value) == str(raised.value)


FIXPOINT_ATTRIBUTES = ("E.a", "E.b", "E.c")
# Values that differ only by case, blanks, int against float or truth value,
# and NaN, which equals nothing, not even itself.
FIXPOINT_VALUES = ("a", " A ", 1, 1.0, True, float("nan"))


def random_fixpoint(rng):
    """Bindings, activated attributes and partial and total dependency rules
    over a few attributes: enough rules on few values that chains,
    conflicts and oscillations all come up."""
    activated = frozenset(a for a in FIXPOINT_ATTRIBUTES if rng.random() < 0.8)
    bound = {}
    for attr in sorted(activated):
        if rng.random() < 0.7:
            value = rng.choice(FIXPOINT_VALUES)
            bound[attr] = TimedValue(value, rng.choice((0, 5, 30)), normalize_value(value))

    def pattern():
        return RulePattern(rng.choice(FIXPOINT_ATTRIBUTES), rng.choice(FIXPOINT_VALUES))

    rules = tuple(
        DependencyRule(
            rng.choice(("partial", "total")),
            tuple(pattern() for _ in range(rng.randint(1, 2))),
            pattern(),
        )
        for _ in range(rng.randint(0, 10))
    )
    return bound, activated, rules


def fixpoint_outcome(apply, bound, activated, rules):
    """The bindings ``apply`` reaches as sorted ``(attribute, (value, delay))``
    text, or the type and text of the error it raises."""
    try:
        out = apply(bound, activated, rules)
    except Exception as exc:  # compared as data: engine and oracle must agree
        return ("raised", type(exc).__name__, str(exc))
    pairs = {
        attr: (got.value, got.delay) if isinstance(got, TimedValue) else got
        for attr, got in out.items()
    }
    return ("ran", repr(sorted(pairs.items(), key=lambda item: item[0])))


def apply_with_index(bound, activated, rules):
    return apply_dependencies(bound, activated, with_rules(rules))


def assert_fixpoint_matches_oracle(bound, activated, rules):
    before = dict(bound)
    got = fixpoint_outcome(apply_with_index, bound, activated, rules)
    assert got == fixpoint_outcome(
        oracles.apply_dependencies_oracle, bound, activated, rules
    )
    assert bound == before
    return got


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_random_fixpoints_match_oracle(seed):
    assert_fixpoint_matches_oracle(*random_fixpoint(random.Random(seed)))


def test_random_fixpoints_cover_every_outcome():
    outcomes = Counter()
    told_apart = 0
    for seed in range(400):
        case = random_fixpoint(random.Random(seed))
        got = assert_fixpoint_matches_oracle(*case)
        outcomes[got[0] if got[0] == "ran" else got[1]] += 1
        # Comparing raw values instead would give another outcome.
        with mock.patch.object(oracles, "_norm", lambda value: value):
            told_apart += got != fixpoint_outcome(
                oracles.apply_dependencies_oracle, *case
            )
    assert set(outcomes) == {"ran", "DependencyConflictError", "DependencyCycleError"}
    assert min(outcomes.values()) >= 10, outcomes
    assert told_apart >= 10


# Attributes that rules may target, bindings may hold and states may
# activate: more of them than the fixpoint's own few, so that many rules
# target an attribute that is not activated, and many activated attributes
# have no rule.
INDEX_ATTRIBUTES = FIXPOINT_ATTRIBUTES + ("E.d", "E.e", "F.a")
index_patterns = st.builds(
    RulePattern, st.sampled_from(INDEX_ATTRIBUTES), st.sampled_from(FIXPOINT_VALUES)
)
# An attribute no binding holds: a rule that starts with it is never looked
# up, whatever its later antecedents hold.
UNBOUND_ATTRIBUTE = "G.a"
first_patterns = st.one_of(
    st.builds(RulePattern, st.just(UNBOUND_ATTRIBUTE), st.sampled_from(FIXPOINT_VALUES)),
    index_patterns,
)
index_rules = st.lists(
    st.builds(
        DependencyRule,
        st.sampled_from(("partial", "total")),
        st.builds(
            lambda first, rest: (first, *rest),
            first_patterns,
            st.lists(index_patterns, max_size=2),
        ),
        index_patterns,
    ),
    max_size=14,
).map(tuple)


@given(
    rules=index_rules,
    activated=st.frozensets(st.sampled_from(INDEX_ATTRIBUTES)),
    observed=st.dictionaries(
        st.sampled_from(INDEX_ATTRIBUTES),
        st.tuples(st.sampled_from(FIXPOINT_VALUES), st.sampled_from((0, 5, 30))),
    ),
)
@settings(max_examples=300, deadline=None)
def test_indexed_live_rules_fire_as_the_scan_does(rules, activated, observed):
    """The graph's index lists, by the attribute and normalized value of a
    rule's first antecedent, the position of every rule that starts with
    it, ascending; the fixpoint that looks its candidates up there reaches
    the scanning oracle's bindings, in the same order, or raises its error
    with the same class and text, conflicts and cycles included."""
    g = with_rules(rules)
    triggers = [
        (rule.antecedent[0].attribute, normalize_value(rule.antecedent[0].value))
        for rule in rules
    ]
    assert g.rules_by_trigger == {
        trigger: tuple(i for i, found in enumerate(triggers) if found == trigger)
        for trigger in triggers
    }
    bound = {
        attr: TimedValue(value, delay, normalize_value(value))
        for attr, (value, delay) in observed.items()
        if attr in activated
    }
    if assert_fixpoint_matches_oracle(bound, activated, rules)[0] == "ran":
        # Rules fire in rule order, so new bindings are added in that order.
        assert list(apply_with_index(bound, activated, rules)) == list(
            oracles.apply_dependencies_oracle(bound, activated, rules)
        )


def test_new_bindings_are_added_in_rule_order():
    # Whichever order a set iterates E.b and E.c in, one of the two rule
    # orders differs from it.
    def derive(target):
        return DependencyRule("total", (RulePattern("E.a", 1),), RulePattern(target, 2))

    bound = {"E.a": TimedValue(1, 0, normalize_value(1))}
    activated = frozenset({"E.a", "E.b", "E.c"})
    for targets in (("E.b", "E.c"), ("E.c", "E.b")):
        rules = with_rules(tuple(derive(target) for target in targets))
        assert list(apply_dependencies(bound, activated, rules)) == ["E.a", *targets]


def test_the_index_is_built_with_the_graph_and_not_compared():
    rules = (
        DependencyRule("partial", (RulePattern("E.a", 1),), RulePattern("E.b", 2)),
        DependencyRule("total", (RulePattern("E.b", " X "),), RulePattern("E.c", 3)),
        DependencyRule("partial", (RulePattern("E.a", 1.0), RulePattern("E.c", 3)),
                       RulePattern("E.b", 4)),
        DependencyRule("partial", (RulePattern("E.c", 3), RulePattern("E.a", 1)),
                       RulePattern("E.b", 5)),
    )
    g = with_rules(rules)
    assert g.rules_by_trigger == {("E.a", 1): (0, 2), ("E.b", "x"): (1,), ("E.c", 3): (3,)}
    assert with_rules(()).rules_by_trigger == {}
    other = ContextGraph({}, {}, dependency_rules=rules)
    object.__setattr__(other, "rules_by_trigger", {})
    assert g == other
    assert "rules_by_trigger" not in repr(g)


def test_equal_shapes_share_one_evaluation_built_by_hand_or_loaded(tmp_path, monkeypatch):
    """A run evaluates a state once for the activities of one scope whose
    state nodes have equal parameters, attributes and composition, whether
    the parts are equal objects built apart or the ones the loader shares;
    a node of another composition is evaluated on its own."""
    calls = []
    compose = chain_mod.compose_value
    monkeypatch.setattr(
        chain_mod, "compose_value",
        lambda bound, node: calls.append(node.id) or compose(bound, node),
    )
    ab = ["E.a", "E.b"]
    nodes = [
        StateNodeDef("default", ("E",), tuple(ab)),
        StateNodeDef("and", tuple(["E"]), tuple(ab), Composition("AND", tuple(ab))),
        StateNodeDef("or", ("E",), tuple(ab), Composition("OR", tuple(ab))),
    ]
    assert nodes[0].composition == nodes[1].composition
    assert nodes[0].composition is not nodes[1].composition
    graph = ContextGraph.build(
        [EntityNode("E")], [AttributeNode(a) for a in ab], state_nodes=nodes
    )
    activities = [
        ActivityNode(node.id, "s", scope=ScopeFilter(frozenset({"E"}), frozenset()))
        for node in nodes
    ]
    ideal = {"E.a": AtomicContext("E", "a"), "E.b": AtomicContext("E", "b")}
    model = ProcessModel(
        graph, ActivityChain.from_nodes(activities),
        FragmentRepository((SubgoalEntry(1, "s"),), {}), (), ideal,
    )
    situation = ContextualSituation.from_contexts(
        [AtomicContext("E", "a", value="x"), AtomicContext("E", "b", value="y")], 0
    )
    trace = run_instance(model, [situation])
    assert [e.value.pairs for e in trace.entries] == [(("E.a", "x"), ("E.b", "y"))] * 3
    assert calls == ["default", "or"]

    # Activities A0000, A0002 and A0004 share entity E000 and one shape.
    bundle = load_bundle(
        generate(Shape(activities=6, entities=2, situations=1), 1, tmp_path)[0]
    )
    stored = bundle.graph.state_nodes
    for part in ("parameters", "attributes", "composition"):
        assert getattr(stored["A0000"], part) is getattr(stored["A0004"], part)
        assert getattr(stored["A0000"], part) != getattr(stored["A0001"], part)
    calls.clear()
    trace = run_instance(bundle.model, bundle.scenario)
    assert sum(e.value is not None for e in trace.entries) == 6
    assert calls == ["A0000", "A0001"]


class TestTriggerLookup:
    """Cases where finding a rule by its first antecedent could part from
    testing every antecedent with ``==``; each is checked against the
    scanning oracle and pinned to its own outcome."""

    ACTIVATED = frozenset({"E.a", "E.b", "E.c", "E.d", "E.e"})

    @staticmethod
    def bind(**values):
        return {
            "E." + attr: TimedValue(value, 0, normalize_value(value))
            for attr, value in values.items()
        }

    def outcome(self, bound, rules):
        return assert_fixpoint_matches_oracle(bound, self.ACTIVATED, rules)

    def test_an_unbound_first_antecedent_keeps_a_rule_from_firing(self):
        rules = (
            DependencyRule("partial", (RulePattern("E.a", 1), RulePattern("E.b", 2)),
                           RulePattern("E.c", 3)),
        )
        assert self.outcome(self.bind(b=2), rules) == (
            "ran", repr([("E.b", (2, 0))])
        )
        assert self.outcome(self.bind(a=1, b=2), rules) == (
            "ran", repr([("E.a", (1, 0)), ("E.b", (2, 0)), ("E.c", (3, 0))])
        )

    def test_a_nan_the_pattern_and_binding_share_is_found_but_never_holds(self):
        nan = float("nan")
        rules = (DependencyRule("partial", (RulePattern("E.a", nan),),
                                RulePattern("E.b", 1)),)
        bound = self.bind(a=nan)
        assert bound["E.a"].key is nan
        # The lookup compares by identity first, so it finds the rule ...
        assert with_rules(rules).rules_by_trigger[("E.a", nan)] == (0,)
        # ... and ``==`` still refuses it.
        assert self.outcome(bound, rules) == ("ran", repr([("E.a", (nan, 0))]))

    @pytest.mark.parametrize("held, fired", [
        (1, ("E.b", "E.c")), (1.0, ("E.b", "E.c")), (True, ("E.d",)),
    ])
    def test_one_and_one_point_oh_trigger_alike_and_true_apart(self, held, fired):
        rules = tuple(
            DependencyRule("total", (RulePattern("E.a", trigger),),
                           RulePattern(target, "set"))
            for trigger, target in ((1, "E.b"), (1.0, "E.c"), (True, "E.d"))
        )
        bound = self.bind(a=held)
        assert self.outcome(bound, rules)[0] == "ran"
        assert list(apply_with_index(bound, self.ACTIVATED, rules)) == ["E.a", *fired]

    @pytest.mark.parametrize("pattern, held", [(" A ", "a"), ("a", " A ")])
    def test_text_triggers_by_its_normalized_form(self, pattern, held):
        rules = (DependencyRule("partial", (RulePattern("E.a", pattern),),
                                RulePattern("E.b", "hit")),)
        assert self.outcome(self.bind(a=held), rules) == (
            "ran", repr([("E.a", (held, 0)), ("E.b", ("hit", 0))])
        )

    def test_a_chain_of_four_rules_fires_one_a_pass(self):
        # Listed last link first, so every pass but the first looks up a
        # binding the pass before wrote, and rule order is not write order.
        attrs = ("E.a", "E.b", "E.c", "E.d", "E.e")
        rules = tuple(
            DependencyRule("partial", (RulePattern(attrs[i], i),),
                           RulePattern(attrs[i + 1], i + 1))
            for i in reversed(range(4))
        )
        bound = {"E.a": TimedValue(0, 5, 0)}
        assert self.outcome(bound, rules) == (
            "ran", repr([(attr, (i, 5)) for i, attr in enumerate(attrs)])
        )
        assert list(apply_with_index(bound, self.ACTIVATED, rules)) == list(attrs)

    def test_a_conflict_names_the_earlier_rule_first(self):
        # E.a is bound before E.b, but the rule on E.b comes first.
        rules = (
            DependencyRule("total", (RulePattern("E.b", 1),), RulePattern("E.c", "x")),
            DependencyRule("total", (RulePattern("E.a", 1),), RulePattern("E.c", "y")),
        )
        assert self.outcome(self.bind(a=1, b=1), rules) == (
            "raised", "DependencyConflictError",
            "rules disagree on 'E.c': 'x' vs 'y'",
        )


class TestComposeValue:
    def test_default_composition_is_conjunction(self):
        g = small_graph()
        activity = "Storage in Cloud"
        s = state_of(
            [ctx("Weather", "Status", "Rainy"), ctx("Network", "Status", "Unavailable")]
        )
        bound = assign_values(g, instantiate(g, activity, s), s.bindings)
        value = compose_value(bound, g.state_nodes["Storage in Cloud"])
        assert value.op == "AND"
        assert value.pairs == (
            ("Weather.Status", "Rainy"),
            ("Network.Status", "Unavailable"),
        )
        assert value.render() == (
            "[(Weather.Status, Rainy) AND (Network.Status, Unavailable)]"
        )

    def test_default_composition_is_built_with_the_node(self):
        node = StateNodeDef("A", ("E",), ("E.a", "E.b"))
        assert node.composition == Composition("AND", ("E.a", "E.b"))
        assert node == StateNodeDef("A", ("E",), ("E.a", "E.b"), node.composition)

    def test_unbound_attribute_raises(self):
        g = small_graph()
        activity = "Bill Payment"
        s = state_of(
            [ctx("Network", "Status", "Unavailable"),
             ctx("Online_Payment", "Status", "x")]
        )
        bound = assign_values(g, instantiate(g, activity, s), s.bindings)
        with pytest.raises(IncompleteBindingError):
            compose_value(bound, g.state_nodes["Bill Payment"])

    def test_nested_composition_keeps_only_its_attributes(self):
        node = StateNodeDef(
            "A",
            ("E",),
            ("E.a", "E.b", "E.c"),
            Composition("AND", ("E.a", Composition("OR", ("E.b", "E.c")))),
        )
        bound = {
            a: TimedValue(v, 0, normalize_value(v))
            for a, v in (("E.a", 1), ("E.b", 2), ("E.c", 3))
        }
        value = compose_value(bound, node)
        assert value.op == "AND"
        assert value.render() == "[(E.a, 1) AND (E.b, 2) AND (E.c, 3)]"

    def test_two_evaluations_read_one_flattened_tuple(self):
        inner = Composition("OR", ("E.b", "E.c"))
        node = StateNodeDef(
            "A", ("E",), ("E.a", "E.b", "E.c"), Composition("AND", ("E.a", inner))
        )
        bound = {
            a: TimedValue(v, 0, normalize_value(v))
            for a, v in (("E.a", 1), ("E.b", 2), ("E.c", 3))
        }
        comp = node.composition
        assert "attributes" not in vars(comp)
        first = compose_value(bound, node)
        flat = vars(comp)["attributes"]
        assert flat == ("E.a", "E.b", "E.c")
        assert vars(inner)["attributes"] == ("E.b", "E.c")
        assert compose_value(bound, node) == first
        assert vars(comp)["attributes"] is flat
        # The cached tuple is no field: equal compositions stay equal and
        # hash alike.
        fresh = Composition("AND", ("E.a", Composition("OR", ("E.b", "E.c"))))
        assert fresh == comp and hash(fresh) == hash(comp)

    def test_max_delay_propagates(self):
        value = CompositeValue(
            "AND", (("A.x", "v"),), max_delay=0
        )
        assert value.max_delay == 0
        timed = TimedValue("v", 30, "v")
        assert timed.delay == 30

    def test_pattern_matching_is_order_insensitive(self):
        a = composite_from_pairs([("A.x", "1"), ("B.y", "2")], "AND")
        b = composite_from_pairs([("B.y", "2"), ("A.x", "1")], "AND")
        assert a.normalized() == b.normalized()
        assert a.normalized() != composite_from_pairs([("A.x", "1")], "AND").normalized()


# Text that casefolds or pads apart, and values that ``==`` makes equal or
# that equal nothing (NaN).
keyed_values = st.one_of(
    st.builds(
        "".join,
        st.tuples(st.sampled_from(("", " ", "\t")), st.text("aAbBßẞ", max_size=4),
                  st.sampled_from(("", " ", "\n"))),
    ),
    st.sampled_from((1, 1.0, True, 0.0, -0.0, float("nan"))),
)


@given(
    pairs=st.lists(st.tuples(st.sampled_from(("A.x", "a.X", "B.y")), keyed_values),
                   max_size=4),
    op=st.sampled_from(("AND", "OR")),
)
def test_a_composite_value_carries_its_selection_key(pairs, op):
    value = composite_from_pairs(pairs, op)
    assert value.key == value.normalized()


def test_the_key_is_neither_shown_nor_compared_and_is_rebuilt_by_replace():
    value = composite_from_pairs([("A.x", "Rainy")], "AND")
    recased = composite_from_pairs([("a.X", " rainy ")], "AND")
    assert value.key == recased.key and value != recased
    assert repr(value) == "CompositeValue(op='AND', pairs=(('A.x', 'Rainy'),), max_delay=0)"
    other = composite_from_pairs([("A.x", "Rainy")], "AND")
    other.key = None
    assert other == value
    changed = dataclasses.replace(value, op="OR", pairs=(("B.y", 2),))
    assert changed.key == changed.normalized() == ("OR", frozenset({("b.y", 2)}))


class TestKioskGraphFixture:
    def test_fixture_loads_and_validates(self, kiosk_dir):
        g = load_bundle(kiosk_dir / "bundle.yaml").graph
        assert validate_graph(g).ok
        assert len(g.state_nodes) == 5
