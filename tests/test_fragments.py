"""Tests for the process-fragment repository and fragment selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.errors import LoadError, UnknownSubgoalError
from ctxflow.files import load_repository
from ctxflow.fragments import (
    FragmentActivity,
    FragmentRepository,
    ProcessFragment,
    SubgoalEntry,
    throw_activity,
)
from ctxflow.graph import composite_from_pairs

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


class TestThrowActivity:
    def test_match_returns_fragment_and_comparison_count(self):
        repo = load_repository(document())
        value = composite_from_pairs(
            [
                ("Caregiver.Expertise", "childcare"),
                ("Patient_Bed.Availability", "NOT_AVAILABLE"),
            ]
        )
        out = throw_activity(repo, "Treatment", value)
        assert out.fragment.id == "transfer_fragment"
        assert out.comparisons == 1

    def test_second_row_costs_two_comparisons(self):
        repo = load_repository(document())
        value = composite_from_pairs(
            [
                ("Caregiver.Expertise", "General_Physician"),
                ("Patient_Bed.Availability", "Not_Available"),
            ]
        )
        out = throw_activity(repo, "Treatment", value)
        assert out.fragment.id == "home_care"
        assert out.comparisons == 2

    def test_no_match_returns_null_fragment(self):
        repo = load_repository(document())
        value = composite_from_pairs([("Caregiver.Expertise", "Surgery")])
        out = throw_activity(repo, "Treatment", value)
        assert out.fragment is None
        assert out.comparisons == len(repo.subgoal("Treatment").rows)

    def test_scan_is_linear_in_subgoal_rows_only(self):
        # Cost never exceeds the row count of the queried sub-goal,
        # regardless of how many other sub-goals the repository holds.
        doc = document()
        for i in range(50):
            doc["subgoals"].append({"name": "Filler_%d" % i, "entries": []})
        repo = load_repository(doc)
        value = composite_from_pairs([("Caregiver.Expertise", "Surgery")])
        assert throw_activity(repo, "Treatment", value).comparisons == 2

    def test_unknown_subgoal_raises(self):
        repo = load_repository(document())
        with pytest.raises(UnknownSubgoalError):
            throw_activity(repo, "Billing", composite_from_pairs([("A.x", 1)]))

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
        assert throw_activity(repo, "Treatment", value).fragment.id == "ghost"


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
