"""Tests for the process-fragment repository, and fragment and rule selection."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.chain import (
    Action,
    ActivityChain,
    ActivityNode,
    AdaptationRule,
    ProcessModel,
    select_rule,
)
from ctxflow.errors import LoadError, UnknownSubgoalError
from ctxflow.files import load_repository
from ctxflow.fragments import (
    FragmentActivity,
    FragmentRepository,
    ProcessFragment,
    SubgoalEntry,
    ThrowResult,
    throw_activity,
)
from ctxflow.graph import ContextGraph, composite_from_pairs

import oracles


def document():
    return {
        "fragments": [
            {
                "id": "transfer_fragment",
                "activities": [
                    {"name": "Appointment Fixing"},
                    {"name": "Arrangement of Ambulance"},
                    {"name": "Transfer Patient"},
                ],
            },
            {
                "id": "home_care",
                "activities": [{"name": "Schedule Home Visit"}],
            },
        ],
        "subgoals": [
            {"name": "Registration", "entries": []},
            {
                "name": "Treatment",
                "entries": [
                    {
                        "op": "AND",
                        "value": [
                            ["Caregiver.Expertise", "Childcare"],
                            ["Patient_Bed.Availability", "Not_Available"],
                        ],
                        "fragment": "transfer_fragment",
                    },
                    {
                        "op": "AND",
                        "value": [
                            ["Caregiver.Expertise", "General_Physician"],
                            ["Patient_Bed.Availability", "Not_Available"],
                        ],
                        "fragment": "home_care",
                    },
                ],
            },
        ],
    }


class TestLoading:
    def test_round_trip(self):
        repo = load_repository(document())
        again = load_repository(oracles.store_repository(repo))
        assert [s.name for s in again.subgoals] == ["Registration", "Treatment"]
        assert set(again.fragments) == {"transfer_fragment", "home_care"}

    def test_subgoal_indices_follow_declaration(self):
        repo = load_repository(document())
        assert repo.subgoal("Treatment").index == 2
        assert repo.subgoal(2).name == "Treatment"

    def test_subgoal_lookup_first_entry_wins(self):
        first = SubgoalEntry(1, "A")
        repo = FragmentRepository(
            (first, SubgoalEntry(2, "A"), SubgoalEntry(1, "B"), SubgoalEntry(3, 2)),
            {},
        )
        assert repo.subgoal("A") is first
        assert repo.subgoal(1) is first
        assert repo.subgoal(2) is repo.subgoals[1]
        assert repo.subgoal("B") is repo.subgoals[2]
        with pytest.raises(UnknownSubgoalError):
            repo.subgoal("C")
        with pytest.raises(UnknownSubgoalError):
            repo.subgoal(["A"])

    def test_duplicate_fragment_id_rejected(self):
        doc = document()
        doc["fragments"].append(doc["fragments"][0])
        with pytest.raises(LoadError):
            load_repository(doc)

    def test_duplicate_value_pattern_rejected(self):
        doc = document()
        row = dict(doc["subgoals"][1]["entries"][0])
        row["fragment"] = "home_care"
        # Same pairs in a different declaration order still collide.
        row["value"] = list(reversed(row["value"]))
        doc["subgoals"][1]["entries"].append(row)
        with pytest.raises(
            LoadError, match=r"^sub-goal 1 entry 2: duplicate value pattern$"
        ):
            load_repository(doc)

    def test_fragment_mapped_twice_rejected(self):
        doc = document()
        doc["subgoals"][1]["entries"].append(
            {
                "op": "AND",
                "value": [["Caregiver.Expertise", "Surgery"]],
                "fragment": "transfer_fragment",
            }
        )
        with pytest.raises(
            LoadError,
            match=r"^sub-goal 1 entry 2: fragment 'transfer_fragment' is mapped twice$",
        ):
            load_repository(doc)

    def test_unknown_fragment_reference_rejected(self):
        doc = document()
        doc["subgoals"][1]["entries"][0]["fragment"] = "ghost"
        with pytest.raises(LoadError):
            load_repository(doc)

    def test_fragment_needs_activities(self):
        with pytest.raises(ValueError):
            ProcessFragment(id="empty", activities=())


def thrown(repo, subgoal, value):
    """The fragment ``throw_activity`` selects for ``value``, checked against
    the scan."""
    key = value.normalized()
    fragment = throw_activity(repo, subgoal, key).fragment
    assert fragment is oracles.throw_scan(repo, subgoal, key)
    return fragment


class TestThrowActivity:
    def test_match_returns_fragment(self):
        repo = load_repository(document())
        value = composite_from_pairs(
            [
                ("Caregiver.Expertise", "childcare"),
                ("Patient_Bed.Availability", "NOT_AVAILABLE"),
            ]
        )
        assert thrown(repo, "Treatment", value).id == "transfer_fragment"

    def test_second_row_matches(self):
        repo = load_repository(document())
        value = composite_from_pairs(
            [
                ("Caregiver.Expertise", "General_Physician"),
                ("Patient_Bed.Availability", "Not_Available"),
            ]
        )
        assert thrown(repo, "Treatment", value).id == "home_care"

    def test_no_match_returns_null_fragment(self):
        repo = load_repository(document())
        value = composite_from_pairs([("Caregiver.Expertise", "Surgery")])
        assert thrown(repo, "Treatment", value) is None

    def test_other_subgoals_rows_are_not_selected(self):
        # Filler sub-goals map the same patterns to their own fragments.
        doc = document()
        rows = doc["subgoals"][1]["entries"]
        for i in range(50):
            row = dict(rows[i % 2], fragment="f%d" % i)
            doc["fragments"].append({"id": "f%d" % i, "activities": [{"name": "F"}]})
            doc["subgoals"].append({"name": "Filler_%d" % i, "entries": [row]})
        repo = load_repository(doc)
        value = composite_from_pairs(rows[0]["value"])
        assert thrown(repo, "Treatment", value).id == "transfer_fragment"
        assert thrown(repo, "Filler_7", value) is None
        assert thrown(repo, "Filler_8", value).id == "f8"

    def test_entries_sharing_an_index_throw_their_own_fragments(self):
        doc = document()
        doc["subgoals"][0] = dict(doc["subgoals"][1], name="Triage", index=2)
        doc["subgoals"][0]["entries"] = [
            dict(row, fragment=fragment_id)
            for row, fragment_id in zip(
                doc["subgoals"][1]["entries"], ("home_care", "transfer_fragment")
            )
        ]
        repo = load_repository(doc)
        assert [(s.index, s.name) for s in repo.subgoals] == [
            (2, "Triage"), (2, "Treatment")
        ]
        value = composite_from_pairs(doc["subgoals"][1]["entries"][0]["value"])
        assert thrown(repo, "Triage", value).id == "home_care"
        assert thrown(repo, "Treatment", value).id == "transfer_fragment"
        assert thrown(repo, 2, value).id == "home_care"

    def test_result_carries_only_the_fragment(self):
        assert [f.name for f in dataclasses.fields(ThrowResult)] == ["fragment"]

    def test_unknown_subgoal_raises(self):
        repo = load_repository(document())
        with pytest.raises(UnknownSubgoalError):
            throw_activity(repo, "Billing", composite_from_pairs([("A.x", 1)]).normalized())

    def test_or_pattern_distinct_from_and(self):
        doc = document()
        doc["subgoals"][1]["entries"].append(
            {
                "op": "OR",
                "value": [
                    ["Caregiver.Expertise", "Childcare"],
                    ["Patient_Bed.Availability", "Not_Available"],
                ],
                "fragment": "ghost",
            }
        )
        doc["fragments"].append(
            {"id": "ghost", "activities": [{"name": "G"}]}
        )
        repo = load_repository(doc)
        value = composite_from_pairs(
            [
                ("Caregiver.Expertise", "Childcare"),
                ("Patient_Bed.Availability", "Not_Available"),
            ],
            op="OR",
        )
        assert thrown(repo, "Treatment", value).id == "ghost"


class TestFragmentActivityDefaults:
    def test_optional_fields_default_empty(self):
        a = FragmentActivity("X")
        assert (a.sub_goal, a.role, a.medium) == ("", "", "")


KEYS = st.one_of(st.sampled_from(["a", "b", "1", "2"]), st.integers(0, 3))


@given(
    entries=st.lists(st.tuples(st.integers(0, 3), KEYS), max_size=6),
    key=KEYS,
)
@settings(max_examples=300, deadline=None)
def test_subgoal_lookup_matches_linear_scan(entries, key):
    repo = FragmentRepository(
        tuple(SubgoalEntry(index, name) for index, name in entries), {}
    )
    expected = oracles.subgoal_oracle(repo, key)
    if expected is None:
        with pytest.raises(UnknownSubgoalError):
            repo.subgoal(key)
    else:
        assert repo.subgoal(key) is expected


# -- lookup against scan on patterns that normalize alike ---------------------

ATTRIBUTES = ("E.a", "E.b", "F.c")


def value_variants(value):
    """Values that normalize like ``value``, and near misses."""
    if isinstance(value, bool):
        return [value, int(value), not value]
    if isinstance(value, int):
        return [value, float(value), value == 1, value + 1]
    if isinstance(value, float):
        # The same NaN object equals itself; another NaN object does not.
        return [value, float("nan"), 2.5]
    return [value, value.upper(), value.swapcase(), "  %s\t" % value, value + "x"]


@st.composite
def variants(draw, base, op):
    """A composite value that differs from ``(op, base)`` in spelling, pair
    order or op, in ways that do or do not change its normalized key."""
    pairs = [
        (
            draw(st.sampled_from([attr, attr.upper(), attr.swapcase(), " %s" % attr])),
            draw(st.sampled_from(value_variants(value))),
        )
        for attr, value in base
    ]
    pairs = draw(st.permutations(pairs))
    return composite_from_pairs(pairs, draw(st.sampled_from([op, op, "AND", "OR"])))


BASES = st.lists(
    st.tuples(
        st.sampled_from(ATTRIBUTES),
        st.one_of(
            st.sampled_from(["on", "Off", " x "]),
            st.integers(-1, 2),
            st.sampled_from([True, False, 0.5, math.nan]),
        ),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda pair: pair[0],
)


@given(data=st.data(), base=BASES, op=st.sampled_from(["AND", "OR"]))
@settings(max_examples=300, deadline=None)
def test_throw_lookup_matches_row_scan(data, base, op):
    rows = data.draw(st.lists(variants(base, op), min_size=1, max_size=5))
    fragments = {
        "f%d" % i: ProcessFragment("f%d" % i, (FragmentActivity("F"),))
        for i in range(len(rows))
    }
    repo = FragmentRepository(
        (
            SubgoalEntry(1, "S", tuple((row, "f%d" % i) for i, row in enumerate(rows))),
            SubgoalEntry(1, "T", tuple((row, "f0") for row in rows[:1])),
        ),
        fragments,
    )
    key = data.draw(variants(base, op)).normalized()
    for subgoal in ("S", "T", 1):
        assert throw_activity(repo, subgoal, key).fragment is oracles.throw_scan(
            repo, subgoal, key
        )


@given(data=st.data(), base=BASES, op=st.sampled_from(["AND", "OR"]))
@settings(max_examples=300, deadline=None)
def test_rule_lookup_matches_rule_scan(data, base, op):
    frag = ProcessFragment("f", (FragmentActivity("F"),))
    rules = []
    for i in range(data.draw(st.integers(1, 6))):
        activity_id = data.draw(st.sampled_from(["a", "b"]))
        pattern = data.draw(variants(base, op))
        if data.draw(st.booleans()):
            rules.append(AdaptationRule(activity_id, pattern, "f", Action("add_after")))
        else:
            action = Action("replace_role", role="R%d" % i)
            rules.append(AdaptationRule(activity_id, pattern, None, action))
    model = ProcessModel(
        ContextGraph.build([], []),
        ActivityChain.from_nodes([ActivityNode("a", "a"), ActivityNode("b", "b")]),
        FragmentRepository((), {"f": frag}),
        tuple(rules),
        {},
    )
    key = data.draw(variants(base, op)).normalized()
    for activity_id in ("a", "b", "c"):
        for fragment in (None, frag):
            assert select_rule(model, activity_id, key, fragment) is (
                oracles.select_rule_scan(model, activity_id, key, fragment)
            )
