"""Every load error that README's "Document formats" quotes is the loader's.

Each case mutates one place of a kiosk copy, runs ``ctxflow validate`` on it
from the copy's parent directory, and requires both the printed error and
README to hold the quoted text verbatim. A case whose text drifts from the
loader fails here; README is what gets fixed.
"""

import pathlib
import shutil

import pytest

from ctxflow.cli import EXIT_VALIDATION, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
KIOSK = ROOT / "tests" / "fixtures" / "kiosk"
README = (ROOT / "README.md").read_text(encoding="utf-8")
# The section's lines without their indentation, which lists and code
# blocks inside them add.
FORMATS = "\n".join(
    line.strip()
    for line in README.split("## Document formats", 1)[1].split("\n## ", 1)[0].splitlines()
)

GRAPH_NODE_0 = "    attributes: [Receptionist.Status, Healthcare_Assistant.Status]\n"
GRAPH_LAST_NODE = "    attributes: [Network.Status, Online_Payment.Status]\n"
REPO_ENTRY_FRAGMENT = "        fragment: transfer_fragment\n"
SCENARIO_WEATHER = (
    "      - {parameter: Weather, attribute: Status, value: Rainy, category: external}\n"
)

# (document, text to replace, replacement, README's quote, what validate
# prints after "invalid: " when that is not "kiosk/" + the quote); a case
# that changes two places gives a tuple of texts and one of replacements)
CASES = {
    "entity without a name": (
        "graph.yaml",
        "{name: Healthcare_Assistant, category: role}",
        "{category: role}",
        "graph.yaml: entity 1: missing name",
        None,
    ),
    "rule pair that is not a pair": (
        "graph.yaml",
        "if: [[Weather.Status, Rainy]]",
        "if: [x]",
        "graph.yaml: dependency rule 0: not an [attribute, value] pair: 'x'",
        None,
    ),
    "state node id used twice": (
        "graph.yaml",
        GRAPH_LAST_NODE,
        GRAPH_LAST_NODE
        + "  - {id: Treatment, parameters: [Caregiver], attributes: [Caregiver.Expertise]}\n",
        "graph.yaml: state node 5: duplicate id 'Treatment'",
        None,
    ),
    "composition that contains itself": (
        "graph.yaml",
        GRAPH_NODE_0,
        GRAPH_NODE_0 + "    composition: &c {op: AND, items: [Receptionist.Status, *c]}\n",
        "graph.yaml: state node 0: composition refers to itself",
        None,
    ),
    "state node parameter used twice": (
        "graph.yaml",
        "parameters: [Network, Online_Payment]",
        "parameters: [Network, Online_Payment, Network]",
        "graph.yaml: state node 4: duplicate parameter 'Network'",
        None,
    ),
    "state node attribute used twice": (
        "graph.yaml",
        GRAPH_LAST_NODE,
        "    attributes: [Network.Status, Online_Payment.Status, Network.Status]\n",
        "graph.yaml: state node 4: duplicate attribute 'Network.Status'",
        None,
    ),
    "parameter whose entity has no attributes": (
        "graph.yaml",
        ("  - {name: Online_Payment, category: organization}\n",
         "parameters: [Network, Online_Payment]"),
        ("  - {name: Online_Payment, category: organization}\n  - {name: Ghost}\n",
         "parameters: [Network, Online_Payment, Ghost]"),
        "graph.yaml: state node 4: parameter 'Ghost' names an entity with no attributes",
        None,
    ),
    "graph findings": (
        "graph.yaml",
        "parameters: [Weather, Network]",
        "parameters: [Weather, Network, Ghost]",
        "invalid: kiosk/graph.yaml: context graph has findings:\n"
        "unknown-entity: state node 'Storage in Cloud' maps parameter 'Ghost' to no entity",
        "kiosk/graph.yaml: context graph has findings:\n"
        "unknown-entity: state node 'Storage in Cloud' maps parameter 'Ghost' to no entity",
    ),
    "rule without an action": (
        "model.yaml",
        "    action: {kind: data_change, data: [Patient Condition Serious]}\n",
        "",
        "model.yaml: rule 1: missing action",
        None,
    ),
    "scope that is not a mapping": (
        "model.yaml",
        "{id: Patient Registration, sub_goal",
        "{id: Patient Registration, scope: x, sub_goal",
        "model.yaml: activity 0 scope: not a mapping: 'x'",
        None,
    ),
    "ideal entry of no attribute": (
        "model.yaml",
        "{parameter: Patient, attribute: Condition",
        "{parameter: Patient, attribute: Mood",
        "model.yaml: ideal entry 2: unknown attribute 'Patient.Mood'",
        None,
    ),
    "scope its state node does not map": (
        "model.yaml",
        "{id: Storage in Cloud, sub_goal",
        "{id: Storage in Cloud, scope: {parameters: [Patient]}, sub_goal",
        "model.yaml: activity 3: scope parameter 'Patient' is not mapped by its state node",
        None,
    ),
    "sub-goal the repository lacks": (
        "model.yaml",
        "sub_goal: Registration,",
        "sub_goal: Ghost,",
        "model.yaml: activity 0: sub_goal 'Ghost' names no repository sub-goal",
        None,
    ),
    "ideal attribute the state node does not map": (
        "graph.yaml",
        GRAPH_NODE_0,
        "    attributes: [Healthcare_Assistant.Status]\n",
        "model.yaml: ideal entry 0: activity 'Patient Registration' takes in attribute "
        "'Receptionist.Status' through parameter 'Receptionist', but its state node "
        "does not map it",
        None,
    ),
    "entry without a fragment": (
        "repo.yaml",
        REPO_ENTRY_FRAGMENT,
        "",
        "repo.yaml: sub-goal 2 entry 0: missing fragment",
        None,
    ),
    "value pattern used twice": (
        "repo.yaml",
        REPO_ENTRY_FRAGMENT,
        REPO_ENTRY_FRAGMENT
        + "      - value: [[Caregiver.Expertise, Childcare],"
        " [Patient_Bed.Availability, Not_Available]]\n"
        + REPO_ENTRY_FRAGMENT,
        "repo.yaml: sub-goal 2 entry 1: duplicate value pattern",
        None,
    ),
    "situation attribute the state node does not map": (
        "scenario.yaml",
        SCENARIO_WEATHER,
        SCENARIO_WEATHER + "      - {parameter: Weather, attribute: Humidity, value: High}\n",
        "scenario.yaml: situation 0: activity 'Storage in Cloud' takes in attribute "
        "'Weather.Humidity' through parameter 'Weather', but its state node does not "
        "map it",
        None,
    ),
    "static context in a situation": (
        "scenario.yaml",
        SCENARIO_WEATHER,
        SCENARIO_WEATHER.replace("external}", "external, temporality: static}"),
        "scenario.yaml: situation 0: static context 'Weather.Status' cannot appear in "
        "a change set",
        None,
    ),
    "timestamp with month 13": (
        "scenario.yaml",
        'time: "2:00 pm"',
        "time: 2026-13-45",
        "cannot parse …/scenario.yaml: line 5, column 11: '2026-13-45' is not a valid "
        "timestamp",
        "cannot parse kiosk/scenario.yaml: line 5, column 11: '2026-13-45' is not a "
        "valid timestamp",
    ),
    "int that is not one": (
        "scenario.yaml",
        'time: "2:00 pm"',
        "time: !!int x",
        "'x' is not a valid int",
        "cannot parse kiosk/scenario.yaml: line 5, column 11: 'x' is not a valid int",
    ),
    "bool that is not one": (
        "scenario.yaml",
        'time: "2:00 pm"',
        "time: !!bool x",
        "'x' is not a valid bool",
        "cannot parse kiosk/scenario.yaml: line 5, column 11: 'x' is not a valid bool",
    ),
    "document nested too deeply": (
        "model.yaml",
        "activities:",
        "activities: %s\nkiosk_activities:" % ("[" * 3000 + "]" * 3000),
        "cannot parse <file>: nested too deeply",
        "cannot parse kiosk/model.yaml: nested too deeply",
    ),
}


def validate_mutant(tmp_path, monkeypatch, capsys, document, old, new):
    """``ctxflow validate``'s exit code and output on a kiosk copy with ``old``
    replaced by ``new`` once in ``document``, or each text of a tuple ``old``
    by its counterpart in ``new``."""
    copy = tmp_path / "kiosk"
    shutil.copytree(KIOSK, copy)
    path = copy / document
    text = path.read_text(encoding="utf-8")
    if isinstance(old, str):
        old, new = (old,), (new,)
    for before, after in zip(old, new):
        assert text.count(before) >= 1
        text = text.replace(before, after, 1)
    path.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["validate", "kiosk/bundle.yaml"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_quoted_load_error_is_the_loaders(case, tmp_path, monkeypatch, capsys):
    document, old, new, quote, printed = CASES[case]
    code, out = validate_mutant(tmp_path, monkeypatch, capsys, document, old, new)
    assert (code, out) == (
        EXIT_VALIDATION, "invalid: %s\n" % (printed or "kiosk/" + quote)
    )
    assert quote in FORMATS


def test_quoted_parse_problems_are_the_parsers(loader, tmp_path, monkeypatch, capsys):
    # The two parsers word this problem differently; README quotes both.
    code, out = validate_mutant(
        tmp_path, monkeypatch, capsys, "model.yaml", "rules:", "a: b: c\nrules:"
    )
    assert code == EXIT_VALIDATION
    assert out.startswith("invalid: cannot parse kiosk/model.yaml: line ")
    problem = out.rstrip("\n").rsplit(": ", 1)[1]
    assert problem in (
        "mapping values are not allowed here",
        "mapping values are not allowed in this context",
    )
    assert "`%s`" % problem in FORMATS
