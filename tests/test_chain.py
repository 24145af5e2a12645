"""Tests for the activity chain, rewrite strategies, rules and the runner."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.chain import (
    FRAGMENT_ACTIONS,
    PLAIN_ACTIONS,
    Action,
    ActivityChain,
    ActivityNode,
    AdaptationRule,
    ProcessModel,
    add_fragment,
    bypass,
    data_level_change,
    reorder,
    replace_activity,
    replace_attribute,
    run_instance,
    select_rule,
)
from ctxflow.context import AtomicContext, ContextualSituation, ScopeFilter
from ctxflow.errors import (
    ChainIntegrityError,
    EmptyChainError,
    InvalidWindowError,
    UnknownActivityError,
    UnknownContextError,
)
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


def make_chain(*ids):
    return ActivityChain.from_nodes(
        [ActivityNode(id=i, sub_goal=i) for i in ids]
    )


def fragment(*names):
    return ProcessFragment(
        id="+".join(names),
        activities=tuple(FragmentActivity(name=n) for n in names),
    )


class TestChainBasics:
    def test_order_follows_links(self):
        assert make_chain("a", "b", "c").order() == ["a", "b", "c"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ChainIntegrityError):
            make_chain("a", "a")

    def test_empty_chain_rejected(self):
        with pytest.raises(EmptyChainError):
            ActivityChain.from_nodes([])

    def test_unknown_activity_lookup(self):
        with pytest.raises(UnknownActivityError):
            make_chain("a").node("zzz")

    def test_validate_catches_a_repeated_id(self):
        chain = make_chain("a", "b")
        chain.ids.append("a")
        with pytest.raises(ChainIntegrityError, match=r"repeated \['a'\]"):
            chain.validate()

    def test_validate_catches_an_unlisted_activity(self):
        chain = make_chain("a", "b", "c")
        chain.ids.remove("b")
        with pytest.raises(ChainIntegrityError, match=r"unlisted \['b'\]"):
            chain.validate()

    def test_validate_catches_a_stray_node(self):
        chain = make_chain("a", "b")
        chain.nodes["zz"] = ActivityNode(id="zz", sub_goal="zz")
        with pytest.raises(ChainIntegrityError, match=r"unlisted \['zz'\]"):
            chain.validate()

    def test_validate_catches_an_unknown_id(self):
        chain = make_chain("a", "b")
        chain.ids[1] = "zz"
        with pytest.raises(ChainIntegrityError, match=r"unknown \['zz'\]"):
            chain.validate()

    def test_splice_rejects_an_id_collision(self):
        chain = make_chain("a", "b")
        with pytest.raises(ChainIntegrityError, match="'b' already in chain"):
            chain._splice(1, ["b"], ["b", "b"], [ActivityNode("b", sub_goal="b")])

    def test_splice_rejects_a_window_that_is_not_there(self):
        chain = make_chain("a", "b", "c")
        with pytest.raises(ChainIntegrityError, match=r"expected \['b'\] at position 0"):
            chain._splice(0, ["b"], [])
        with pytest.raises(ChainIntegrityError, match=r"found \[\]"):
            chain._splice(3, ["c"], [])
        assert chain.order() == ["a", "b", "c"]

    def test_position_checks_its_hint(self):
        chain = make_chain("a", "b", "c")
        assert chain.position("c", 2) == 2
        for wrong in (None, 0, 1, 3, -1, 99):
            assert chain.position("c", wrong) == 2
        with pytest.raises(UnknownActivityError):
            chain.position("zz", 0)

    def test_rewrites_of_a_copy_leave_the_original_alone(self):
        chain = make_chain("a", "b", "c", "d")
        ids, nodes = list(chain.ids), dict(chain.nodes)
        clone = chain.copy()
        add_fragment(clone, "a", "before", fragment("f"))
        add_fragment(clone, "a", "after", fragment("g"))
        replace_activity(clone, "b", fragment("p", "q"))
        replace_attribute(clone, "c", "role", "R")
        replace_attribute(clone, "c", "medium", "M")
        data_level_change(clone, "c", {"x"})
        bypass(clone, "d")
        reorder(clone, ["g", "p"], ["p", "g"])
        assert clone.order() == ["f", "a", "p", "g", "q", "c"]
        assert clone.nodes["c"] == ActivityNode(
            "c", sub_goal="c", role="R", medium="M", output_data=frozenset({"x"})
        )
        assert chain.ids == ids
        assert chain.nodes == nodes
        assert all(chain.nodes[a] is node for a, node in nodes.items())
        assert chain.nodes["c"] == ActivityNode("c", sub_goal="c")


class TestRewriteOperations:
    def test_add_fragment_after(self):
        chain = make_chain("a", "b")
        add_fragment(chain, "a", "after", fragment("f1", "f2"))
        assert chain.order() == ["a", "f1", "f2", "b"]

    def test_add_fragment_before_start_moves_start(self):
        chain = make_chain("a", "b")
        add_fragment(chain, "a", "before", fragment("f1"))
        assert chain.order() == ["f1", "a", "b"]

    def test_add_fragment_name_collision_gets_suffix(self):
        chain = make_chain("a", "b")
        add_fragment(chain, "b", "after", fragment("a"))
        assert chain.order() == ["a", "b", "a#2"]

    def test_replace_activity(self):
        chain = make_chain("a", "b", "c")
        replace_activity(chain, "b", fragment("p1", "p2"))
        assert chain.order() == ["a", "p1", "p2", "c"]

    def test_replace_start_activity(self):
        chain = make_chain("a", "b")
        replace_activity(chain, "a", fragment("p"))
        assert chain.order() == ["p", "b"]

    def test_replace_attribute_role_and_medium(self):
        chain = make_chain("a")
        replace_attribute(chain, "a", "role", "Z")
        replace_attribute(chain, "a", "medium", "cash")
        assert chain.nodes["a"].role == "Z"
        assert chain.nodes["a"].medium == "cash"
        with pytest.raises(ValueError):
            replace_attribute(chain, "a", "colour", "x")
        # An unknown activity is reported before a bad kind.
        with pytest.raises(UnknownActivityError):
            replace_attribute(chain, "zz", "colour", "x")

    def test_bypass_middle_and_ends(self):
        chain = make_chain("a", "b", "c")
        bypass(chain, "b")
        assert chain.order() == ["a", "c"]
        bypass(chain, "a")
        assert chain.order() == ["c"]
        with pytest.raises(EmptyChainError):
            bypass(chain, "c")

    def test_reorder_all_three_window_permutations(self):
        for perm in itertools.permutations(["a", "b", "c"]):
            chain = make_chain("x", "a", "b", "c", "y")
            reorder(chain, ["a", "b", "c"], list(perm))
            assert chain.order() == ["x"] + list(perm) + ["y"]

    def test_reorder_two_window_at_end(self):
        chain = make_chain("a", "b", "c")
        reorder(chain, ["b", "c"], ["c", "b"])
        assert chain.order() == ["a", "c", "b"]

    def test_reorder_rejects_non_contiguous_window(self):
        chain = make_chain("a", "b", "c")
        with pytest.raises(InvalidWindowError):
            reorder(chain, ["a", "c"], ["c", "a"])

    def test_reorder_rejects_bad_permutation(self):
        chain = make_chain("a", "b", "c")
        with pytest.raises(InvalidWindowError):
            reorder(chain, ["a", "b"], ["a", "c"])

    def test_reorder_rejects_oversized_window(self):
        chain = make_chain("a", "b", "c", "d", "e")
        with pytest.raises(InvalidWindowError):
            reorder(chain, ["a", "b", "c", "d"], ["d", "c", "b", "a"])

    @pytest.mark.parametrize("at", [0, 1, 2, 3, 4, -1, 99])
    def test_a_wrong_position_falls_back_to_the_lookup(self, at):
        # The target "c" sits at index 2; every other ``at`` is stale.
        ids = ["a", "b", "c", "d", "e"]
        chain = make_chain(*ids)
        add_fragment(chain, "c", "before", fragment("f"), at=at)
        assert chain.order() == oracles.splice_add(ids, "c", "before", ["f"])
        chain = make_chain(*ids)
        add_fragment(chain, "c", "after", fragment("f"), at=at)
        assert chain.order() == oracles.splice_add(ids, "c", "after", ["f"])
        chain = make_chain(*ids)
        replace_activity(chain, "c", fragment("p", "q"), at=at)
        assert chain.order() == oracles.splice_replace(ids, "c", ["p", "q"])
        chain = make_chain(*ids)
        bypass(chain, "c", at=at)
        assert chain.order() == oracles.splice_bypass(ids, "c")
        chain = make_chain(*ids)
        reorder(chain, ["c", "d"], ["d", "c"], at=at)
        assert chain.order() == oracles.splice_reorder(ids, ["c", "d"], ["d", "c"])
        chain.validate()

    def test_data_level_change_keeps_topology(self):
        chain = make_chain("a", "b")
        data_level_change(chain, "a", {"patient serious"})
        assert chain.order() == ["a", "b"]
        assert chain.nodes["a"].output_data == {"patient serious"}


class TestActionsAndRules:
    def test_unknown_action_kind_rejected(self):
        with pytest.raises(ValueError):
            Action(kind="explode")

    def test_fragment_actions_require_selected_fragment(self):
        pattern = composite_from_pairs([("A.x", 1)], "AND")
        with pytest.raises(ValueError):
            AdaptationRule("a", pattern, None, Action("add_after"))
        with pytest.raises(ValueError):
            AdaptationRule("a", pattern, "frag", Action("bypass"))

    def test_empty_value_pattern_rejected(self):
        with pytest.raises(ValueError):
            AdaptationRule(
                "a", composite_from_pairs([], "AND"), None, Action("bypass")
            )

    def test_select_rule_first_listed_match(self):
        pattern = composite_from_pairs([("A.x", 1)], "AND")
        first = AdaptationRule("a", pattern, None, Action("bypass"))
        second = AdaptationRule("a", pattern, None, Action("replace_role", role="Z"))
        assert select_rule(rule_model(second, first), "a", pattern.normalized(), None) is second
        assert select_rule(rule_model(first, second), "a", pattern.normalized(), None) is first

    def test_select_rule_requires_fragment_agreement(self):
        pattern = composite_from_pairs([("A.x", 1)], "AND")
        frag = fragment("p")
        with_frag = AdaptationRule("a", pattern, frag.id, Action("add_after"))
        model = rule_model(with_frag)
        assert select_rule(model, "a", pattern.normalized(), None) is None
        assert select_rule(model, "a", pattern.normalized(), frag) is with_frag

    def test_select_rule_no_match_returns_none(self):
        pattern = composite_from_pairs([("A.x", 1)], "AND")
        other = composite_from_pairs([("A.x", 2)], "AND")
        model = rule_model(AdaptationRule("a", pattern, None, Action("bypass")))
        assert select_rule(model, "a", other.normalized(), None) is None

    def test_select_rule_reads_only_the_activitys_rules(self):
        pattern = composite_from_pairs([("A.x", 1)], "AND")
        rule = AdaptationRule("a", pattern, None, Action("bypass"))
        assert select_rule(rule_model(rule), "b", pattern.normalized(), None) is None


# Each kind's own extra, as a keyword of ``Action``.
OWN_EXTRA = {
    "replace_role": {"role": "Z"},
    "replace_medium": {"medium": "cash"},
    "reorder": {"order": ("L2", "L3", "L1")},
    "data_change": {"data": ("b", "a", "c")},
}
EVERY_EXTRA = {key: value for extra in OWN_EXTRA.values() for key, value in extra.items()}


@pytest.mark.parametrize("extras", ["none", "own", "every"])
@pytest.mark.parametrize("kind", FRAGMENT_ACTIONS + PLAIN_ACTIONS)
def test_an_action_is_described_once_as_it_was_on_every_call(kind, extras):
    action = Action(kind, **{
        "none": {}, "own": OWN_EXTRA.get(kind, {}), "every": EVERY_EXTRA,
    }[extras])
    text = action.description
    assert text == oracles.describe_oracle(action)
    assert action.description is text
    # The cached text is no field: equal actions stay equal and hash alike.
    fresh = dataclasses.replace(action)
    assert fresh == action and hash(fresh) == hash(action)


def test_the_described_extras_are_the_kinds_own():
    assert [
        Action(kind, **EVERY_EXTRA).description for kind in FRAGMENT_ACTIONS + PLAIN_ACTIONS
    ] == [
        "add_before", "add_after", "replace_fragment", "replace_role(Z)",
        "replace_medium(cash)", "bypass", "reorder(L2->L3->L1)", "data_change(a+b+c)",
    ]


def rule_model(*rules):
    """A model over activities ``a`` and ``b`` holding ``rules``."""
    return ProcessModel(
        ContextGraph.build([], []),
        make_chain("a", "b"),
        FragmentRepository((), {}),
        rules,
        {},
    )


# -- random rewrite harness shared with the acceptance suite ----------------


def apply_random_op(rng, chain, expected, counter):
    """Apply one random rewrite to both the chain and the oracle list."""
    ops = ["add", "attr", "data"]
    if len(expected) >= 2:
        ops += ["bypass", "reorder", "replace"]
    elif len(expected) >= 1:
        ops += ["replace"]
    if len(expected) > 25:
        ops = ["bypass"]
    op = rng.choice(ops)
    if op == "add":
        names = ["n%d" % next(counter) for _ in range(rng.randint(1, 3))]
        target = rng.choice(expected)
        position = rng.choice(["before", "after"])
        add_fragment(chain, target, position, fragment(*names))
        return oracles.splice_add(expected, target, position, names)
    if op == "replace":
        names = ["n%d" % next(counter) for _ in range(rng.randint(1, 3))]
        target = rng.choice(expected)
        replace_activity(chain, target, fragment(*names))
        return oracles.splice_replace(expected, target, names)
    if op == "bypass":
        target = rng.choice(expected)
        bypass(chain, target)
        return oracles.splice_bypass(expected, target)
    if op == "reorder":
        size = rng.choice([2, 3]) if len(expected) >= 3 else 2
        start = rng.randint(0, len(expected) - size)
        window = expected[start:start + size]
        permutation = rng.sample(window, len(window))
        reorder(chain, window, permutation)
        return oracles.splice_reorder(expected, window, permutation)
    if op == "attr":
        replace_attribute(chain, rng.choice(expected), "role", "R")
    else:
        data_level_change(chain, rng.choice(expected), {"d"})
    return expected


def run_random_rewrites(seed, sequences, ops_per_sequence):
    """Drive random rewrite sequences, checking against the splice oracle."""
    rng = random.Random(seed)
    counter = itertools.count(1)
    checked = 0
    for _ in range(sequences):
        ids = ["a%d" % next(counter) for _ in range(rng.randint(1, 6))]
        chain = ActivityChain.from_nodes(
            [ActivityNode(id=i, sub_goal=i) for i in ids]
        )
        expected = list(ids)
        for _ in range(ops_per_sequence):
            expected = apply_random_op(rng, chain, expected, counter)
            chain.validate()
            assert chain.order() == expected
            checked += 1
    return checked


def test_random_rewrites_small():
    assert run_random_rewrites(seed=7, sequences=100, ops_per_sequence=4) == 400


@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_random_rewrites_property(seed):
    run_random_rewrites(seed=seed, sequences=3, ops_per_sequence=6)


# -- runner ------------------------------------------------------------------


def tiny_model(delay=0, durations=(0, 0), action=None):
    """Two activities; the second carries a contextual event on E.status."""
    graph = ContextGraph.build(
        entities=[EntityNode("E")],
        attributes=[AttributeNode("E.status", delay=delay)],
        state_nodes=[StateNodeDef("b", ("E",), ("E.status",))],
    )
    a = ActivityNode(id="a", sub_goal="a", duration=durations[0])
    b = ActivityNode(
        id="b",
        sub_goal="b",
        duration=durations[1],
        scope=ScopeFilter(frozenset({"E"}), frozenset()),
    )
    chain = ActivityChain.from_nodes([a, b])
    repo = FragmentRepository((SubgoalEntry(1, "a"), SubgoalEntry(2, "b")), {})
    rules = (
        AdaptationRule(
            "b",
            composite_from_pairs([("E.status", "bad")], "AND"),
            None,
            action or Action("replace_role", role="Z"),
        ),
    )
    ideal = {
        "E.status": AtomicContext(parameter="E", attribute="status", value="good")
    }
    return ProcessModel(graph, chain, repo, rules, ideal)


def situation(value, timestamp):
    return ContextualSituation.from_contexts(
        [AtomicContext(parameter="E", attribute="status", value=value)],
        timestamp=timestamp,
    )


class TestRunner:
    def test_ideal_scenario_makes_no_changes(self):
        trace = run_instance(tiny_model(), [])
        assert trace.final_order == ["a", "b"]
        assert trace.actions == []

    def test_matching_situation_triggers_action(self):
        trace = run_instance(tiny_model(), [situation("bad", 10)])
        assert len(trace.actions) == 1
        assert trace.actions[0].action == "replace_role(Z)"

    def test_clock_starts_at_first_situation(self):
        trace = run_instance(tiny_model(), [situation("bad", 840)])
        assert trace.entries[0].timestamp == 840

    def test_non_monotone_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_instance(
                tiny_model(), [situation("bad", 10), situation("good", 5)]
            )

    def test_timed_value_defers_and_blocks_the_activity(self):
        model = tiny_model(delay=30, durations=(10, 0))
        trace = run_instance(model, [situation("bad", 0)])
        deferred = [e for e in trace.entries if e.deferred_until is not None]
        assert len(deferred) == 1
        # Evaluation happens after activity a (10 time units), so the
        # action becomes due at 10 + 30.
        assert deferred[0].deferred_until == 40
        applied = trace.actions[-1]
        assert applied.timestamp >= deferred[0].deferred_until
        assert trace.final_order == ["a", "b"]

    def test_rule_mismatch_leaves_chain_alone(self):
        trace = run_instance(tiny_model(), [situation("odd", 10)])
        assert trace.actions == []
        assert trace.final_order == ["a", "b"]

    def test_inserted_fragment_activities_execute_in_place(self):
        frag = fragment("f1", "f2")
        model = tiny_model()
        model = ProcessModel(
            model.graph,
            model.chain,
            FragmentRepository(
                (
                    SubgoalEntry(1, "a"),
                    SubgoalEntry(
                        2,
                        "b",
                        ((composite_from_pairs([("E.status", "bad")], "AND"), frag.id),),
                    ),
                ),
                {frag.id: frag},
            ),
            (
                AdaptationRule(
                    "b",
                    composite_from_pairs([("E.status", "bad")], "AND"),
                    frag.id,
                    Action("add_before"),
                ),
            ),
            model.ideal,
        )
        trace = run_instance(model, [situation("bad", 5)])
        assert trace.final_order == ["a", "f1", "f2", "b"]

    def test_bypass_action_drops_activity(self):
        model = tiny_model(action=Action("bypass"))
        trace = run_instance(model, [situation("bad", 5)])
        assert trace.final_order == ["a"]

    def test_reorder_action_uses_neighbour_labels(self):
        graph = ContextGraph.build(
            entities=[EntityNode("E")],
            attributes=[AttributeNode("E.status")],
            state_nodes=[StateNodeDef("b", ("E",), ("E.status",))],
        )
        nodes = [
            ActivityNode(id="a", sub_goal="a"),
            ActivityNode(
                id="b",
                sub_goal="b",
                scope=ScopeFilter(frozenset({"E"}), frozenset()),
            ),
            ActivityNode(id="c", sub_goal="c"),
        ]
        model = ProcessModel(
            graph,
            ActivityChain.from_nodes(nodes),
            FragmentRepository((SubgoalEntry(1, "b"),), {}),
            (
                AdaptationRule(
                    "b",
                    composite_from_pairs([("E.status", "bad")], "AND"),
                    None,
                    Action("reorder", order=("L2", "L3", "L1")),
                ),
            ),
            {
                "E.status": AtomicContext(
                    parameter="E", attribute="status", value="good"
                )
            },
        )
        trace = run_instance(model, [situation("bad", 5)])
        assert trace.final_order == ["a", "c", "b"]


class TestModelIsCheckedWhenBuilt:
    """``ProcessModel`` refuses a broken model at construction, so no run or
    translation has to check it again."""

    def test_rule_for_an_unknown_activity(self):
        model = tiny_model()
        rule = AdaptationRule(
            "ghost", composite_from_pairs([("E.status", "bad")], "AND"), None, Action("bypass")
        )
        with pytest.raises(
            UnknownActivityError, match="^rule targets unknown activity 'ghost'$"
        ):
            ProcessModel(model.graph, model.chain, model.repo, (rule,), model.ideal)

    def test_ideal_naming_an_unknown_attribute(self):
        model = tiny_model()
        ideal = dict(model.ideal, **{
            "E.ghost": AtomicContext(parameter="E", attribute="ghost", value="x")
        })
        with pytest.raises(
            UnknownContextError,
            match="^ideal assignment names unknown attribute 'E.ghost'$",
        ):
            ProcessModel(model.graph, model.chain, model.repo, model.rules, ideal)

    @pytest.mark.parametrize("ids, fault", [
        (["a"], r"unlisted \['b'\]"),
        (["a", "b", "b"], r"repeated \['b'\]"),
        (["a", "b", "zz"], r"unknown \['zz'\]"),
    ], ids=["unlisted", "repeated", "unknown"])
    def test_chain_whose_parts_disagree(self, ids, fault):
        model = tiny_model()
        chain = ActivityChain(dict(model.chain.nodes), ids)
        with pytest.raises(ChainIntegrityError, match=fault):
            ProcessModel(model.graph, chain, model.repo, model.rules, model.ideal)

    def test_chain_is_checked_before_rules_and_rules_before_ideal(self):
        model = tiny_model()
        rule = AdaptationRule(
            "ghost", composite_from_pairs([("E.status", "bad")], "AND"), None, Action("bypass")
        )
        ideal = {"E.ghost": AtomicContext(parameter="E", attribute="ghost", value="x")}
        chain = ActivityChain(dict(model.chain.nodes), ["a"])
        with pytest.raises(ChainIntegrityError):
            ProcessModel(model.graph, chain, model.repo, (rule,), ideal)
        with pytest.raises(UnknownActivityError, match="^rule targets"):
            ProcessModel(model.graph, model.chain, model.repo, (rule,), ideal)
