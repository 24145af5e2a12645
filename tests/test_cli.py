"""Tests for the command-line interface: exit codes and deterministic output."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from ctxflow import cli, files, query
from ctxflow.cli import main
from ctxflow.errors import UnknownActivityError


class TestValidate:
    def test_kiosk_bundle_is_valid(self, kiosk_bundle, capsys):
        assert main(["validate", str(kiosk_bundle)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_scenario_file(self, tmp_path, kiosk_dir, capsys):
        for name in ("graph.yaml", "repo.yaml", "model.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        (tmp_path / "bundle.yaml").write_text(
            (kiosk_dir / "bundle.yaml").read_text()
        )
        assert main(["validate", str(tmp_path / "bundle.yaml")]) == 1
        assert "scenario.yaml" in capsys.readouterr().out

    def test_dangling_fragment_in_rule(self, tmp_path, kiosk_dir, capsys):
        for name in ("graph.yaml", "repo.yaml", "scenario.yaml", "bundle.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        model = yaml.safe_load((kiosk_dir / "model.yaml").read_text())
        model["rules"][2]["fragment"] = "ghost"
        (tmp_path / "model.yaml").write_text(yaml.safe_dump(model))
        assert main(["validate", str(tmp_path / "bundle.yaml")]) == 1
        assert "unknown fragment" in capsys.readouterr().out


class TestRun:
    def test_kiosk_summary(self, kiosk_bundle, capsys):
        assert main(["run", str(kiosk_bundle)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_order"][-2:] == ["Bill Payment", "Storage in Cloud"]
        assert len(summary["adaptations"]) == 5
        assert summary["evaluations"] == 5
        keys = ["action", "activity", "fragment", "time", "value"]
        for adaptation in summary["adaptations"]:  # none was deferred
            assert sorted(adaptation) == keys

    def test_ideal_scenario_logs_no_warning(self, ideal_bundle, capsys, caplog):
        with caplog.at_level(logging.DEBUG, logger="ctxflow"):
            assert main(["run", str(ideal_bundle)]) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert any("no adaptation rule matched" in r.getMessage() for r in caplog.records)

    def test_ideal_scenario_has_no_adaptations(self, ideal_bundle, capsys):
        assert main(["run", str(ideal_bundle)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["adaptations"] == []
        assert summary["final_order"] == [
            "Patient Registration",
            "Patient Medical Info Collection",
            "Treatment",
            "Storage in Cloud",
            "Bill Payment",
        ]

    def test_static_ideal_context_runs_as_the_plain_one(
        self, tmp_path, kiosk_bundle, kiosk_dir, capsys
    ):
        # The ideal is a state, not a change set, so it may hold a static
        # context; the run reads only its values.
        for name in ("bundle.yaml", "graph.yaml", "repo.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        entry = "value: General_Physician, category: role}"
        model = (kiosk_dir / "model.yaml").read_text()
        assert model.count(entry) == 1
        (tmp_path / "model.yaml").write_text(
            model.replace(entry, entry[:-1] + ", temporality: static}")
        )
        assert main(["run", str(kiosk_bundle)]) == 0
        plain = capsys.readouterr().out
        assert main(["run", str(tmp_path / "bundle.yaml")]) == 0
        assert capsys.readouterr().out == plain

    def test_recased_padded_pattern_selects_the_same_fragment_and_rule(
        self, tmp_path, kiosk_bundle, kiosk_dir, capsys
    ):
        # Patterns match case- and padding-blind, so kiosk's Treatment row and
        # rule still select transfer_fragment and add it after Treatment.
        for name in ("bundle.yaml", "graph.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        pattern = "[Caregiver.Expertise, Childcare]"
        recased = '[caregiver.EXPERTISE, "  CHILDCARE "]'
        for name in ("repo.yaml", "model.yaml"):
            text = (kiosk_dir / name).read_text().replace(pattern, recased)
            assert text.count(recased) == 1
            (tmp_path / name).write_text(text)
        assert main(["run", str(kiosk_bundle)]) == 0
        plain = capsys.readouterr().out
        assert main(["run", str(tmp_path / "bundle.yaml")]) == 0
        assert capsys.readouterr().out == plain

    def test_output_files_are_byte_identical_across_runs(
        self, kiosk_bundle, tmp_path
    ):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["run", str(kiosk_bundle), "-o", str(out1)]) == 0
        assert main(["run", str(kiosk_bundle), "-o", str(out2)]) == 0
        assert (out1 / "summary.json").read_bytes() == (
            out2 / "summary.json"
        ).read_bytes()
        assert (out1 / "trace.log").read_bytes() == (out2 / "trace.log").read_bytes()

    def test_trace_log_names_a_decision_no_rule_matched(self, tmp_path, kiosk_dir):
        # Without its rule, Patient Registration's value matches none.
        assert _run_mutated(tmp_path, kiosk_dir, "model.yaml", _del(("rules",), 0)) == 0
        out = tmp_path / "out"
        assert main(["run", str(tmp_path / "bundle.yaml"), "-o", str(out)]) == 0
        assert (out / "trace.log").read_text().splitlines()[0] == (
            "t=840 | Patient Registration | [(Receptionist.Status, Absent) AND "
            "(Healthcare_Assistant.Status, Present)] | - | no-rule"
        )

    def test_deferred_adaptation_is_listed_once(self, tmp_path, kiosk_dir):
        # A 30-minute green link on Weather.Status defers the Storage in Cloud
        # reorder from t=840 to t=870; the trace records it at both times.
        for name in ("bundle.yaml", "model.yaml", "repo.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        link = "  - {name: Weather.Status}\n"
        graph = (kiosk_dir / "graph.yaml").read_text()
        assert graph.count(link) == 1
        (tmp_path / "graph.yaml").write_text(
            graph.replace(link, "  - {name: Weather.Status, delay: 30}\n")
        )
        out = tmp_path / "out"
        assert main(["run", str(tmp_path / "bundle.yaml"), "-o", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["evaluations"] == 5
        assert [(a["time"], a["activity"]) for a in summary["adaptations"]] == [
            (840, "Patient Registration"),
            (840, "Patient Medical Info Collection"),
            (840, "Treatment"),
            (840, "Storage in Cloud"),
            (840, "Bill Payment"),
        ]
        deferred = [a for a in summary["adaptations"] if "deferred_until" in a]
        assert deferred == [{
            "time": 840,
            "activity": "Storage in Cloud",
            "value": "[(Weather.Status, Rainy) AND (Network.Status, Unavailable)]",
            "fragment": None,
            "action": "reorder(L2->L3->L1)",
            "deferred_until": 870,
        }]
        log = (out / "trace.log").read_text().splitlines()
        assert len(log) == 6
        assert log[3].endswith("| deferred-until=870")
        assert log[5].startswith("t=870 | Storage in Cloud |")

    def test_non_monotone_scenario_fails_validation(
        self, tmp_path, kiosk_dir, capsys
    ):
        for name in ("graph.yaml", "repo.yaml", "model.yaml", "bundle.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        (tmp_path / "scenario.yaml").write_text(
            yaml.safe_dump(
                {
                    "version": 1,
                    "kind": "scenario",
                    "situations": [
                        {"time": 10, "contexts": []},
                        {"time": 5, "contexts": []},
                    ],
                }
            )
        )
        assert main(["run", str(tmp_path / "bundle.yaml")]) == 1

    @pytest.mark.parametrize(
        "situations,place,reason",
        [
            ([{"time": 10, "contexts": []}, {"contexts": []}], "situation 1",
             "missing time"),
            ([{"time": 10, "contexts": "oops"}], "situation 0", "must be a list"),
            ([{"time": 10, "contexts": ["oops"]}], "situation 0 context 0",
             "not a mapping"),
            ([{"time": 10, "contexts": [["Weather", "Status"]]}],
             "situation 0 context 0", "not a mapping"),
            (["oops"], "situation 0", "not a mapping"),
            (
                [{"time": 10, "contexts": [
                    {"parameter": ["Weather"], "attribute": "Status"}]}],
                "situation 0 context 0",
                "must be text",
            ),
            (
                [{"time": 10, "contexts": [
                    {"parameter": "Weather", "attribute": "Status",
                     "temporality": "static"}]}],
                "situation 0",
                "static context",
            ),
        ],
    )
    def test_malformed_situation_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, situations, place, reason
    ):
        for name in ("graph.yaml", "repo.yaml", "model.yaml", "bundle.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        (tmp_path / "scenario.yaml").write_text(
            yaml.safe_dump(
                {"version": 1, "kind": "scenario", "situations": situations}
            )
        )
        assert main(["run", str(tmp_path / "bundle.yaml")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid: ")
        assert "scenario.yaml: %s: " % place in out
        assert reason in out


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _del(path, key):
    return lambda doc: _at(doc, path).pop(key)


def _set(path, key, value):
    return lambda doc: _at(doc, path).__setitem__(key, value)


def _run_mutated(tmp_path, kiosk_dir, name, mutate, command="run"):
    for other in ("graph.yaml", "repo.yaml", "model.yaml", "scenario.yaml",
                  "bundle.yaml"):
        if other != name:
            (tmp_path / other).write_text((kiosk_dir / other).read_text())
    doc = yaml.safe_load((kiosk_dir / name).read_text())
    mutate(doc)
    (tmp_path / name).write_text(yaml.safe_dump(doc))
    return main([command, str(tmp_path / "bundle.yaml")])


def _append(path, item):
    return lambda doc: _at(doc, path).append(item)


def _both(first, second):
    return lambda doc: (first(doc), second(doc))


# One kiosk graph mutation per finding code a document can produce.
GRAPH_FINDINGS = {
    "unknown-entity": _append(("state_nodes", 3, "parameters"), "Ghost"),
    "unknown-attribute": _append(("state_nodes", 0, "attributes"), "Receptionist.Mood"),
    "attribute-entity": _set(("state_nodes", 1), "parameters", []),
    "composition-scope": _set(
        ("state_nodes", 4),
        "composition",
        {"op": "AND", "items": ["Network.Status", "Weather.Status"]},
    ),
    "total-rule-target": _set(
        ("dependency_rules", 1), "then", ["Network.Status", "Available"]
    ),
    "node-overlap": _append(("entities",), {"name": "Treatment"}),
}


def _rule(kind, antecedent, consequent):
    return {"kind": kind, "if": [list(antecedent)], "then": list(consequent)}


# Dependency rules added to kiosk's, one set per way the fixpoint fails a
# run, and the line each failure prints. Bill Payment activates two
# attributes, so five rules give a cap of 5 x 2 + 1 passes.
FIXPOINT_FAILURES = {
    "conflict": (
        [_rule("total", ("Network.Status", "Unavailable"),
               ("Online_Payment.Status", "Maybe"))],
        "run failed: rules disagree on 'Online_Payment.Status':"
        " 'Not_Possible' vs 'Maybe'",
    ),
    "cycle": (
        [_rule("partial", ("Online_Payment.Status", "Not_Possible"),
               ("Network.Status", "Available")),
         _rule("partial", ("Online_Payment.Status", "Possible"),
               ("Network.Status", "Unavailable"))],
        "run failed: dependency rules did not stabilise within 11 passes",
    ),
}


@pytest.mark.parametrize("case", sorted(FIXPOINT_FAILURES))
def test_a_fixpoint_failure_ends_the_run_in_one_line(
    tmp_path, kiosk_dir, capsys, case
):
    rules, line = FIXPOINT_FAILURES[case]

    def mutate(doc):
        doc["dependency_rules"].extend(rules)

    assert _run_mutated(tmp_path, kiosk_dir, "graph.yaml", mutate) == 2
    assert capsys.readouterr() == (line + "\n", "")


class TestLoadGate:
    """Every command that reads a bundle refuses the same ill-formed ones."""

    @pytest.mark.parametrize("command", ["validate", "run", "verify", "metrics"])
    @pytest.mark.parametrize("code", sorted(GRAPH_FINDINGS))
    def test_graph_finding_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, command, code
    ):
        mutate = GRAPH_FINDINGS[code]
        assert _run_mutated(tmp_path, kiosk_dir, "graph.yaml", mutate, command) == 1
        first, *findings = capsys.readouterr().out.splitlines()
        assert first == "invalid: %s: context graph has findings:" % (
            tmp_path / "graph.yaml",
        )
        assert [line.split(":")[0] for line in findings] == [code]

    def test_every_finding_is_listed(self, tmp_path, kiosk_dir, capsys):
        def mutate(doc):
            for change in GRAPH_FINDINGS.values():
                change(doc)

        assert _run_mutated(tmp_path, kiosk_dir, "graph.yaml", mutate) == 1
        _, *findings = capsys.readouterr().out.splitlines()
        assert findings == [
            "node-overlap: state node 'Treatment' collides with a entity node",
            "total-rule-target: total rule targets direct attribute 'Network.Status'",
            "unknown-attribute: state node 'Patient Registration' maps attribute"
            " 'Receptionist.Mood' to no attribute node",
            "attribute-entity: state node 'Patient Medical Info Collection' maps"
            " attribute 'Patient.Condition' but not its entity 'Patient'",
            "unknown-entity: state node 'Storage in Cloud' maps parameter 'Ghost'"
            " to no entity",
            "composition-scope: state node 'Bill Payment' composes attribute"
            " 'Weather.Status' outside its own links",
        ]

    # `run` is one of the entry cases of TestMalformedDocuments.
    @pytest.mark.parametrize("command", ["validate", "verify", "metrics"])
    def test_model_cross_check_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, command
    ):
        mutate = _set(("activities", 0), "sub_goal", "Ghost")
        assert _run_mutated(tmp_path, kiosk_dir, "model.yaml", mutate, command) == 1
        assert capsys.readouterr().out == (
            "invalid: %s: activity 0: sub_goal 'Ghost' names no repository sub-goal\n"
            % (tmp_path / "model.yaml",)
        )

    def test_repeated_graph_name_is_a_load_error(self, tmp_path, kiosk_dir, capsys):
        # The graph files entities, attributes and state nodes by name, so a
        # repeat would silently replace the entry before it.
        def mutate(doc):
            doc["state_nodes"].append(dict(doc["state_nodes"][2]))
            doc["attributes"].append({"name": "Weather.Status", "delay": 30})

        assert _run_mutated(tmp_path, kiosk_dir, "graph.yaml", mutate, "validate") == 1
        assert capsys.readouterr().out == (
            "invalid: %s: attribute 8: duplicate name 'Weather.Status'\n"
            % (tmp_path / "graph.yaml",)
        )

    @pytest.mark.parametrize("command", ["validate", "run", "verify"])
    @pytest.mark.parametrize(
        "name,mutate,message",
        [
            # The ideal binds Receptionist.Status, which Patient Registration
            # takes in through its parameter Receptionist.
            ("graph.yaml",
             _set(("state_nodes", 0), "attributes", ["Healthcare_Assistant.Status"]),
             "model.yaml: ideal entry 0: activity 'Patient Registration' takes in"
             " attribute 'Receptionist.Status' through parameter 'Receptionist',"
             " but its state node does not map it\n"),
            ("scenario.yaml",
             _append(("situations", 0, "contexts"),
                     {"parameter": "Weather", "attribute": "Humidity", "value": "High"}),
             "scenario.yaml: situation 0: activity 'Storage in Cloud' takes in"
             " attribute 'Weather.Humidity' through parameter 'Weather',"
             " but its state node does not map it\n"),
        ],
        ids=["ideal", "situation"],
    )
    def test_unmapped_bound_attribute_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, command, name, mutate, message
    ):
        # Without the load-time check, `run` failed with "has no blue link"
        # (exit 2) while `validate` and `verify` passed.
        assert _run_mutated(tmp_path, kiosk_dir, name, mutate, command) == 1
        assert capsys.readouterr().out == "invalid: %s/%s" % (tmp_path, message)

    def test_unscoped_activity_needs_no_known_sub_goal(
        self, tmp_path, kiosk_dir, capsys
    ):
        # An activity without a state node is never evaluated, so its
        # sub-goal is never looked up.
        mutate = _append(("activities",), {"id": "Extra", "sub_goal": "Nowhere"})
        assert _run_mutated(tmp_path, kiosk_dir, "model.yaml", mutate) == 0
        assert json.loads(capsys.readouterr().out)["final_order"][-1] == "Extra"


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "mutate,where,reason",
        [
            (_del(("fragments", 0), "id"), "fragment 0:", "missing id"),
            (
                _del(("fragments", 0, "activities", 1), "name"),
                "fragment 0 activity 1:",
                "missing name",
            ),
            (_del(("subgoals", 2), "name"), "sub-goal 2:", "missing name"),
            (
                _del(("subgoals", 2, "entries", 0), "fragment"),
                "sub-goal 2 entry 0:",
                "missing fragment",
            ),
            (_set((), "fragments", ["oops"]), "fragment 0:", "not a mapping"),
            (_set(("fragments", 0), "activities", []), "fragment 0:", "no activities"),
            (_set(("fragments", 0), "activities", "oops"), "fragment 0:",
             "must be a list"),
            (_set(("subgoals", 2, "entries", 0), "value", 3), "sub-goal 2 entry 0:",
             "value must be a list"),
            (_set((), "subgoals", {"a": 1}), "subgoals must", "be a list"),
        ],
    )
    def test_repository_entry_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, mutate, where, reason
    ):
        assert _run_mutated(tmp_path, kiosk_dir, "repo.yaml", mutate) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid: %s: %s" % (tmp_path / "repo.yaml", where))
        assert reason in out

    @pytest.mark.parametrize(
        "name,mutate,message",
        [
            ("model.yaml", _set((), "activities", {"a": 1}),
             "activities must be a list, not {'a': 1}"),
            ("model.yaml", _set((), "ideal", "oops"), "ideal must be a list"),
            ("model.yaml", _set((), "rules", "oops"), "rules must be a list"),
            ("model.yaml", _set(("activities",), 1, "oops"),
             "activity 1: not a mapping: 'oops'"),
            ("model.yaml", _set(("rules",), 1, "oops"), "rule 1: not a mapping"),
            ("model.yaml", _set(("activities", 0), "scope", ["Weather"]),
             "activity 0 scope: not a mapping"),
            ("model.yaml", _del(("rules", 1), "action"), "rule 1: missing action"),
            ("model.yaml", _set(("rules", 3, "action"), "order", "L2"),
             "rule 3 action: order must be a list"),
            ("model.yaml", _set(("activities", 2), "duration", "long"),
             "activity 2: duration must be a whole number >= 0, not 'long'"),
            ("model.yaml", _set(("rules", 0), "activity", "Ghost"),
             "rule 0: unknown activity 'Ghost'"),
            ("model.yaml", _set(("activities", 1), "id", "Treatment"),
             "activity 2: duplicate id 'Treatment'"),
            ("model.yaml", _set(("ideal", 0), "attribute", "Mood"),
             "ideal entry 0: unknown attribute 'Receptionist.Mood'"),
            ("model.yaml",
             _append(("activities",), {"id": "Extra", "sub_goal": "Registration",
                                       "scope": {"parameters": ["Weather"]}}),
             "activity 5: has a scope but no state node\n"),
            ("model.yaml",
             _set(("activities", 3), "scope", {"parameters": ["Weather", "Patient"]}),
             "activity 3: scope parameter 'Patient' is not mapped by its state node\n"),
            ("model.yaml",
             _set(("activities", 3), "scope", {"attributes": ["Patient.Condition"]}),
             "activity 3: scope attribute 'Patient.Condition' is not mapped by its"
             " state node\n"),
            ("model.yaml", _set(("activities", 0), "sub_goal", "Ghost"),
             "activity 0: sub_goal 'Ghost' names no repository sub-goal\n"),
            ("model.yaml", _set(("activities", 1), "sub_goal", 9),
             "activity 1: sub_goal 9 names no repository sub-goal\n"),
            (
                "repo.yaml",
                lambda doc: doc["subgoals"][2]["entries"].append(
                    dict(doc["subgoals"][2]["entries"][0])
                ),
                "sub-goal 2 entry 1: duplicate value pattern",
            ),
            ("graph.yaml", _del(("entities", 1), "name"), "entity 1: missing name"),
            ("graph.yaml", _set(("attributes", 3), "delay", -5),
             "attribute 3: delay must be a whole number >= 0, not -5"),
            ("graph.yaml", _del(("relations", 1), "target"),
             "relation 1: missing target"),
            ("graph.yaml", _set(("dependency_rules", 0), "then", "Network.Status"),
             "dependency rule 0: not an [attribute, value] pair"),
            ("model.yaml", _set(("rules", 1, "value", "pairs", 0), 1, None),
             "rule 1 value: not an [attribute, value] pair"),
            ("model.yaml", _set(("ideal", 0), "value", [10 ** 400]),
             "ideal entry 0: value must be text, a number or a truth value, not [1000"),
            ("repo.yaml", _set(("subgoals", 2, "entries", 0, "value", 1), 1, None),
             "sub-goal 2 entry 0: not an [attribute, value] pair"),
            ("graph.yaml", _del(("dependency_rules", 2), "then"),
             "dependency rule 2: missing then"),
            ("graph.yaml", _del(("state_nodes", 3), "id"), "state node 3: missing id"),
            ("graph.yaml", _append(("entities",), {"name": "Weather"}),
             "entity 8: duplicate name 'Weather'\n"),
            ("graph.yaml", _append(("attributes",), {"name": "Weather.Status"}),
             "attribute 8: duplicate name 'Weather.Status'\n"),
            ("graph.yaml",
             _append(("state_nodes",), {"id": "Treatment", "parameters": ["Caregiver"],
                                        "attributes": ["Caregiver.Expertise"]}),
             "state node 5: duplicate id 'Treatment'\n"),
            ("graph.yaml", _set(("state_nodes", 0), "attributes", [["x"]]),
             "state node 0: attributes must list text"),
        ],
    )
    def test_entry_error_names_file_and_position(
        self, tmp_path, kiosk_dir, capsys, name, mutate, message
    ):
        assert _run_mutated(tmp_path, kiosk_dir, name, mutate) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid: %s: %s" % (tmp_path / name, message))

    @pytest.mark.parametrize(
        "name,mutate",
        [
            ("model.yaml", _set(("rules", 1, "value", "pairs", 0), 1, 10 ** 400)),
            ("model.yaml", _set(("ideal", 0), "value", -(10 ** 400))),
            ("repo.yaml", _set(("subgoals", 2, "entries", 0, "value", 1), 1, 10 ** 400)),
        ],
        ids=["rule-pattern", "ideal", "repository-entry"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_whole_number_too_large_for_a_float_loads(
        self, tmp_path, kiosk_dir, capsys, name, mutate, command
    ):
        assert _run_mutated(tmp_path, kiosk_dir, name, mutate, command) == 0
        assert "invalid" not in capsys.readouterr().out

    def test_non_mapping_ideal_entry_names_file_and_index(
        self, tmp_path, kiosk_dir, capsys
    ):
        mutate = _set(("ideal",), 2, "oops")
        assert _run_mutated(tmp_path, kiosk_dir, "model.yaml", mutate) == 1
        assert capsys.readouterr().out == (
            "invalid: %s: ideal entry 2: not a mapping: 'oops'\n"
            % (tmp_path / "model.yaml",)
        )

    @pytest.mark.parametrize(
        "name,path,mutate,message",
        [
            pytest.param(name, path, mutate, place + ": " + problem,
                         id="%s: %s: %s" % (name, place, problem))
            for name, path, entry in (
                ("model.yaml", ("ideal",), "ideal entry %d"),
                ("scenario.yaml", ("situations", 0, "contexts"),
                 "situation 0 context %d"),
            )
            for mutate, place, problem in (
                (lambda at: _del(at + (1,), "attribute"), entry % 1,
                 "missing attribute"),
                (lambda at: _set(at + (0,), "parameter", 7), entry % 0,
                 "parameter must be text, not 7"),
                (lambda at: _set(at + (3,), "connector", 1.5), entry % 3,
                 "connector must be text, not 1.5"),
                (lambda at: _set(at + (2,), "value", None), entry % 2,
                 "value must be text, a number or a truth value, not None"),
                (lambda at: _set(at + (5,), "value", ["x"]), entry % 5,
                 "value must be text, a number or a truth value, not ['x']"),
                (lambda at: _set(at + (0,), "instance", None), entry % 0,
                 "instance must be text, not None"),
                (lambda at: _set(at, 4, "oops"), entry % 4,
                 "not a mapping: 'oops'"),
                (lambda at: _set(at, 6, ["Network", "Status"]), entry % 6,
                 "not a mapping: ['Network', 'Status']"),
                (lambda at: _set(at + (7,), "connector", "~"), entry % 7,
                 "unknown connector '~'"),
                # Of two faults, a missing key is named first.
                (lambda at: _both(_set(at + (3,), "category", 7),
                                  _del(at + (3,), "parameter")),
                 entry % 3, "missing parameter"),
            )
        ],
    )
    def test_malformed_context_is_named_by_its_place(
        self, tmp_path, kiosk_dir, capsys, name, path, mutate, message
    ):
        assert _run_mutated(tmp_path, kiosk_dir, name, mutate(path)) == 1
        assert capsys.readouterr().out == "invalid: %s: %s\n" % (
            tmp_path / name, message)


class TestVerify:
    def test_kiosk_net_passes_all_properties(self, kiosk_bundle, capsys):
        assert main(["verify", str(kiosk_bundle)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        assert report["one_safe"] is True
        assert report["dead_transitions"] == []
        assert report["dead_markings"] == 1
        assert report["goal_is_only_dead_marking"] is True
        assert report["goal_reachable"] is True

    def test_tiny_limit_is_inconclusive(self, kiosk_bundle, capsys):
        assert main(["verify", str(kiosk_bundle), "--limit", "5"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["partial"] is True

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_non_positive_limit_is_rejected(self, kiosk_bundle, capsys, limit):
        assert main(["verify", str(kiosk_bundle), "--limit", limit]) == 1
        assert "--limit" in capsys.readouterr().out

    KIOSK_REPORT = """\
{
  "arcs": 698,
  "bound_violations": [],
  "dead_markings": 1,
  "dead_transitions": [],
  "goal_is_home_marking": true,
  "goal_is_only_dead_marking": true,
  "goal_reachable": true,
  "markings": 343,
  "one_safe": true,
  "partial": false,
  "verdict": "pass",
  "witness_length": 58
}
"""
    KIOSK_LIMIT_5_REPORT = """\
{
  "arcs": 4,
  "markings": 5,
  "partial": true,
  "verdict": "inconclusive: exploration limit reached"
}
"""

    @pytest.mark.parametrize("flags, code, expected", [
        ([], 0, KIOSK_REPORT),
        (["--limit", "5"], 3, KIOSK_LIMIT_5_REPORT),
    ], ids=["full", "limit-5"])
    def test_kiosk_report_is_byte_identical(
        self, kiosk_bundle, tmp_path, capsys, flags, code, expected
    ):
        assert main(["verify", str(kiosk_bundle), *flags]) == code
        assert capsys.readouterr().out == expected
        assert main(["verify", str(kiosk_bundle), *flags, "-o", str(tmp_path)]) == code
        assert capsys.readouterr().out == expected
        assert (tmp_path / "report.json").read_text() == expected

    def test_report_written_deterministically(self, kiosk_bundle, tmp_path, capsys):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        main(["verify", str(kiosk_bundle), "-o", str(out1)])
        capsys.readouterr()
        main(["verify", str(kiosk_bundle), "-o", str(out2)])
        assert (out1 / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()


class TestMetrics:
    @pytest.mark.parametrize("flag, value", [
        ("--n1", "0"),
        ("--n2", "0"),
        ("--N1", "-1"),
        ("--N2", "0"),
        ("--ta", "-1"),
        ("--ta", "nan"),
        ("--ta", "inf"),
        ("--cct", "-inf"),
        ("--base-activities", "-3"),
        ("--base-branches", "-1"),
    ])
    def test_out_of_range_flag_is_refused(self, kiosk_bundle, capsys, flag, value):
        assert main(["metrics", str(kiosk_bundle), "%s=%s" % (flag, value)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid: %s must be " % flag)
        assert out.count("\n") == 1

    def test_edge_values_are_accepted(self, kiosk_bundle, capsys):
        assert main([
            "metrics", str(kiosk_bundle), "--ta", "0", "--n1", "2", "--N1", "2",
            "--base-activities", "0", "--base-branches", "0",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structure"]["noa_extra"] == 5

    def test_defaults(self, kiosk_bundle, capsys):
        assert main(["metrics", str(kiosk_bundle)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["structure"]["mcc_extra"] == 2
        assert report["structure"]["noa_extra"] == 0
        assert report["execution_time"]["value"] == 25.0

    def test_custom_costs(self, kiosk_bundle, capsys):
        assert main(
            ["metrics", str(kiosk_bundle), "--ta", "2", "--cct", "0"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        # 5 activities x (2 + 1 + 1 + 1 + 0)
        assert report["execution_time"]["value"] == 25.0


class TestQuery:
    def test_network_status(self, kiosk_dir, capsys):
        rc = main(
            [
                "query",
                str(kiosk_dir / "scenario.yaml"),
                "AND Network WHERE parameter INSTANCE_OF Network",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == (
            "Network(Network, Status, =, Unavailable)"
        )

    @pytest.mark.parametrize("blank", [" ", "\n"])
    def test_trailing_blank_is_ignored(self, kiosk_dir, capsys, blank):
        query = "AND Network WHERE parameter INSTANCE_OF Network"
        scenario = str(kiosk_dir / "scenario.yaml")
        assert main(["query", scenario, query]) == 0
        stripped = capsys.readouterr()
        assert main(["query", scenario, query + blank]) == 0
        assert capsys.readouterr() == stripped

    def test_null_result(self, kiosk_dir, capsys):
        rc = main(
            [
                "query",
                str(kiosk_dir / "scenario.yaml"),
                "AND Caregiver WHERE attr Expertise = Surgery",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "NULL"

    def test_parse_error_exit_code(self, kiosk_dir, capsys):
        rc = main(["query", str(kiosk_dir / "scenario.yaml"), "HUH what"])
        assert rc == 1
        assert "position" in capsys.readouterr().out

    def test_incompatible_arith_is_runtime_error(self, kiosk_dir, capsys):
        rc = main(
            [
                "query",
                str(kiosk_dir / "scenario.yaml"),
                "ADD Manpower(HA, Count, =, 1), Manpower(Other, Count, =, 2)",
            ]
        )
        assert rc == 2

    def test_every_listed_instance_of_an_attribute(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump({
            "version": 1,
            "kind": "scenario",
            "situations": [{"time": 600, "contexts": [
                {"parameter": "Network", "attribute": "Status",
                 "value": "Available", "instance": "OperatorA"},
                {"parameter": "Network", "attribute": "Status",
                 "value": "Unavailable", "instance": "OperatorB"},
            ]}],
        }))
        queries = (
            "OR Network WHERE attribute = Status AND value = Available",
            "AND Network WHERE parameter INSTANCE_OF Network",
        )
        for query in queries:
            assert main(["query", str(scenario), query]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Network(OperatorA, Status, =, Available)",
            "Network(OperatorA, Status, =, Available) AND "
            "Network(OperatorB, Status, =, Unavailable)",
        ]


    @pytest.mark.parametrize("joiner", ["or", "Or", "OR"])
    def test_joiner_between_terms_in_any_case(self, kiosk_dir, capsys, joiner):
        query = "AND Weather WHERE attr Status = Rainy %s attr Status = Sunny"
        rc = main(["query", str(kiosk_dir / "scenario.yaml"), query % joiner])
        assert rc == 0
        assert capsys.readouterr().out == "Weather(Weather, Status, =, Rainy)\n"

    def test_mixed_joiners_in_any_case_are_refused(self, kiosk_dir, capsys):
        query = (
            "AND Weather WHERE attr Status = Rainy and attr Status = Sunny"
            " OR attr Status = Cloudy"
        )
        rc = main(["query", str(kiosk_dir / "scenario.yaml"), query])
        assert rc == 1
        assert capsys.readouterr().out == (
            "query error at position %d: mixed AND/OR without parentheses\n"
            % query.index("attr Status = Cloudy")
        )

    def test_bare_int_too_large_for_a_float_compares_exactly(self, tmp_path, capsys):
        # 10**400 has no float: it loads, parses and compares as the int it is.
        word = "1" + "0" * 400
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "version: 1\nkind: scenario\nsituations:\n"
            "  - time: 600\n    contexts:\n"
            "      - {parameter: Sensor, attribute: Reading, value: %s}\n" % word
        )
        reading = "Sensor(Sensor, Reading, =, %s)" % word
        expected = {
            "AND Sensor WHERE value = " + word: reading,
            "AND Sensor WHERE value = " + word[:-1] + "1": "NULL",
            "AND Sensor WHERE value > " + "9" * 400: reading,
            "AND Sensor WHERE value < " + word: "NULL",
        }
        for query in expected:
            assert main(["query", str(scenario), query]) == 0
        assert capsys.readouterr().out.splitlines() == list(expected.values())

    def test_only_numbers_are_ordered(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "version: 1\nkind: scenario\nsituations:\n"
            "  - time: 600\n    contexts:\n"
            "      - {parameter: Sensor, attribute: Reading, value: inf}\n"
            "      - {parameter: Sensor, attribute: Reading, value: 1e5}\n"
            "      - {parameter: Sensor, attribute: Reading, value: '5'}\n"
            "      - {parameter: Sensor, attribute: Reading, value: true}\n"
            "      - {parameter: Sensor, attribute: Reading, value: 2.5}\n"
            "      - {parameter: Sensor, attribute: Reading, value: 9007199254740993}\n"
        )
        for query in ("AND Sensor WHERE value > 3", "AND Sensor WHERE value < 3",
                      "AND Sensor WHERE value > 9007199254740992"):
            assert main(["query", str(scenario), query]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Sensor(Sensor, Reading, =, 9007199254740993)",
            "Sensor(Sensor, Reading, =, 2.5)",
            "Sensor(Sensor, Reading, =, 9007199254740993)",
        ]

    def test_whole_numbers_past_2_53_compare_exactly(self, tmp_path, capsys):
        # 2**53 + 1 has no float of its own: equality must not round it to
        # 2**53, as ordering does not.
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "version: 1\nkind: scenario\nsituations:\n"
            "  - time: 600\n    contexts:\n"
            "      - {parameter: Sensor, attribute: Reading, value: 9007199254740993}\n"
        )
        reading = "Sensor(Sensor, Reading, =, 9007199254740993)"
        expected = {
            "AND Sensor WHERE value = 9007199254740992": "NULL",
            "AND Sensor WHERE value > 9007199254740992": reading,
            "AND Sensor WHERE value != 9007199254740992"
            " AND value > 9007199254740992": reading,
        }
        for query in expected:
            assert main(["query", str(scenario), query]) == 0
        assert capsys.readouterr().out.splitlines() == list(expected.values())

    def test_bare_value_selects_what_the_scenario_holds(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "version: 1\nkind: scenario\nsituations:\n"
            "  - time: 600\n    contexts:\n"
            "      - {parameter: Sensor, attribute: Reading, value: inf}\n"
            "      - {parameter: Sensor, attribute: Armed, value: true}\n"
            "      - {parameter: Sensor, attribute: Code, value: 0x1F}\n"
        )
        reading = "Sensor(Sensor, Reading, =, inf)"
        armed = "Sensor(Sensor, Armed, =, True)"
        code = "Sensor(Sensor, Code, =, 31)"
        expected = {
            "OR Sensor WHERE attribute = Reading AND value = inf": reading,
            'OR Sensor WHERE attribute = Reading AND value = "inf"': reading,
            "OR Sensor WHERE attribute = Armed AND value = true": armed,
            "OR Sensor WHERE attribute = Armed AND value = On": armed,
            'OR Sensor WHERE attribute = Armed AND value = "true"': "NULL",
            "AND Sensor WHERE attr Code = 0x1F": code,
            "AND Sensor WHERE attr Code = 31": code,
        }
        for query in expected:
            assert main(["query", str(scenario), query]) == 0
        assert capsys.readouterr().out.splitlines() == list(expected.values())

    def test_arith_on_a_bare_inf_is_runtime_error(self, kiosk_dir, capsys):
        query = "ADD Manpower(HA, Count, =, inf), Manpower(HA, Count, =, 1)"
        rc = main(["query", str(kiosk_dir / "scenario.yaml"), query])
        assert rc == 2
        assert capsys.readouterr().out == (
            "query failed: non-numeric operand Manpower(HA, Count, =, inf)\n"
        )

    def test_arith_past_every_float_is_runtime_error(self, kiosk_dir, capsys):
        word = "1" + "0" * 400
        query = "ADD Manpower(HA, Count, =, %s), Manpower(HA, Count, =, 2.5)" % word
        assert main(["query", str(kiosk_dir / "scenario.yaml"), query]) == 2
        assert capsys.readouterr().out == (
            "query failed: Manpower(HA, Count, =, %s) and Manpower(HA, Count, =, 2.5)"
            " do not add up to a float\n" % word
        )


@pytest.mark.parametrize("under", [False, True], ids=["file", "file-sub"])
@pytest.mark.parametrize("command", ["run", "verify", "metrics"])
def test_out_onto_a_file_is_one_line(kiosk_bundle, tmp_path, capsys, command, under):
    # ``-o`` names an existing file, or a directory below one: the command
    # writes nothing and says which path the system refused, and why.
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    out = existing / "sub" if under else existing
    assert main([command, str(kiosk_bundle), "-o", str(out)]) == 1
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr() == ("invalid: cannot write %s: %s\n" % (out, reason), "")
    assert existing.read_text() == "kept\n"


@pytest.mark.parametrize("before", [None, "kept\n"], ids=["new", "existing"])
@pytest.mark.parametrize("refused", ["summary.json", "trace.log"])
def test_a_run_out_that_is_refused_writes_neither_file(kiosk_bundle, tmp_path, capsys,
                                                       refused, before):
    # One of run's two files is a directory: run writes neither, leaves the
    # other as it was, or absent, and names the path it could not write.
    out = tmp_path / "d"
    (out / refused).mkdir(parents=True)
    other = out / ({"summary.json", "trace.log"} - {refused}).pop()
    if before is not None:
        other.write_text(before)
    assert main(["run", str(kiosk_bundle), "-o", str(out)]) == 1
    assert capsys.readouterr() == (
        "invalid: cannot write %s: Is a directory\n" % (out / refused), "")
    assert (other.read_text() if other.exists() else None) == before
    assert {p.name for p in out.iterdir()} == {refused} | ({other.name} if before else set())


@pytest.mark.parametrize("depth", [100, 101, 3000])
def test_query_nesting_stops_at_the_loaders_depth(kiosk_dir, capsys, depth):
    # As deep as a document may nest, a condition parses and selects; one
    # parenthesis more is refused at that parenthesis, in one line.
    head = "AND Weather WHERE "
    text = head + "(" * depth + "attr Status = Rainy" + ")" * depth
    code = main(["query", str(kiosk_dir / "scenario.yaml"), text])
    out, err = capsys.readouterr()
    limit = files._FromEvents.MAX_DEPTH
    assert limit == query._Parser.MAX_DEPTH == 100
    if depth <= limit:
        assert (code, out, err) == (0, "Weather(Weather, Status, =, Rainy)\n", "")
    else:
        assert (code, out, err) == (
            1, "query error at position %d: nested too deeply\n" % (len(head) + limit), "")


def test_unexpected_engine_error_is_one_line_naming_its_class(
    kiosk_bundle, monkeypatch, capsys
):
    # No command lets this error out; ``main`` reports what one would.
    def failing(args):
        raise UnknownActivityError("x")

    monkeypatch.setattr(cli, "cmd_validate", failing)
    assert main(["validate", str(kiosk_bundle)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("error (UnknownActivityError): x\n", "")


SRC = Path(cli.__file__).resolve().parent.parent
LAZY = ("ctxflow.petri", "ctxflow.query")
REPORT_LAZY = (
    "import sys\n"
    "from ctxflow.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(m for m in %r if m in sys.modules))\n"
    "sys.exit(code)\n" % (LAZY,)
)


@pytest.mark.parametrize("command, loaded", [
    ("run", ""), ("validate", ""), ("verify", "ctxflow.petri"),
])
def test_only_verify_and_query_import_their_modules(kiosk_bundle, command, loaded):
    # In a fresh interpreter, as the installed command runs: ``run`` and
    # ``validate`` pay for neither the net nor the query language.
    done = fresh_python(REPORT_LAZY, command, str(kiosk_bundle))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == loaded


def test_the_net_module_loads_no_loader():
    # ``petri`` shares the collector guard with ``files`` through ``_gc``.
    done = fresh_python(
        "import sys, ctxflow.petri\n"
        "print(*(m in sys.modules for m in ('ctxflow.files', 'yaml')))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def fresh_python(code, *args):
    """``python -c code *args`` in a fresh interpreter that finds ``ctxflow``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
