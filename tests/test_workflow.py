"""The CI workflow runs checks that live in the test suite, not its own.

Each ``run:`` step must be the install line, the tier-1 command, a pytest
call on test files and the classes and functions they define, a step that
runs the benchmark with no heredoc or ``sed`` line in it, or lines that
each call the installed ``ctxflow`` command. A check written inline in the
workflow would run only in CI, so no tier-1 run would ever see it fail.
No pytest step may run a test that an earlier one runs already.
"""

import ast
import pathlib
import re
import shlex

import pytest
import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

INSTALL = 'python -m pip install -e ".[test]"'
TIER_1 = (
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q"
    " --continue-on-collection-errors"
)
PYTEST = "PYTHONPATH=src python -m pytest -q "
BENCH = "python3 bench/run.py"
INLINE = re.compile(r"<<|\bsed\b")  # a heredoc, or a sed line


def missing_node(node_id):
    """Why ``node_id`` names no test path, class or function, or None."""
    path, *names = node_id.split("::")
    if not (ROOT / path).exists():
        return "no path %s" % path
    if not names:
        return None
    if not path.endswith(".py"):
        return "%s is not a Python file" % path
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return "%s defines no %s" % (path, "::".join(names))
        body = found[0].body
    return None


def refusal(script):
    """Why the workflow may not run ``script``, or None if it may."""
    script = script.strip()
    lines = script.splitlines()
    if script in (INSTALL, TIER_1):
        return None
    if BENCH in script:
        return "inline code beside the bench" if INLINE.search(script) else None
    if all(line.startswith("ctxflow ") for line in lines):
        return None
    if len(lines) == 1 and script.startswith(PYTEST):
        for node_id in shlex.split(script[len(PYTEST):]):
            problem = missing_node(node_id)
            if problem:
                return problem
        return None
    return "not a known entry point"


def node_ids(script):
    """The node ids a one-line pytest step runs; none for any other step."""
    script = script.strip()
    if "\n" in script or not script.startswith(PYTEST):
        return []
    return shlex.split(script[len(PYTEST):])


def runs(node_id, other):
    """Whether running ``node_id`` runs ``other`` too."""
    return other == node_id or other.startswith((node_id + "::", node_id + "/"))


def repeats(scripts):
    """Each (node id, earlier node id) where a pytest step runs a test that
    an earlier step runs already: the same id, one inside the other's path
    or class, or one holding the other."""
    found, earlier = [], []
    for script in scripts:
        ids = node_ids(script)
        found += [
            (node_id, seen)
            for node_id in ids
            for seen in earlier
            if runs(seen, node_id) or runs(node_id, seen)
        ]
        earlier += ids
    return found


def run_steps():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step["name"], step["run"]


def test_every_step_runs_a_known_entry_point():
    assert [(name, refusal(run)) for name, run in run_steps() if refusal(run)] == []


def test_no_step_runs_a_test_an_earlier_step_runs():
    assert repeats(run for _, run in run_steps()) == []


PARSE_ERRORS = "tests/test_files.py::TestParseErrors"
DEEP = PARSE_ERRORS + "::test_deeply_nested_document_is_a_load_error"


def test_the_parse_error_class_once_ran_three_times():
    steps = [PYTEST + PARSE_ERRORS, PYTEST + PARSE_ERRORS, PYTEST + DEEP]
    assert repeats(steps) == [
        (PARSE_ERRORS, PARSE_ERRORS), (DEEP, PARSE_ERRORS), (DEEP, PARSE_ERRORS)
    ]


@pytest.mark.parametrize(
    "earlier, later",
    [
        (PARSE_ERRORS, PARSE_ERRORS),
        (PARSE_ERRORS, DEEP),
        ("tests/test_files.py", PARSE_ERRORS),
        ("tests", PARSE_ERRORS),
        (DEEP, PARSE_ERRORS),
        ("tests/test_cli.py::TestRun " + PARSE_ERRORS, "bench " + DEEP),
    ],
    ids=["same", "method-of-class", "class-of-file", "file-of-directory",
         "class-holding-method", "second-id"],
)
def test_a_repeated_node_id_is_refused(earlier, later):
    assert len(repeats([PYTEST + earlier, PYTEST + later])) == 1


@pytest.mark.parametrize(
    "earlier, later",
    [
        ("tests/test_petri.py::test_translate_pauses_the_collector_and_restores_it",
         "tests/test_petri.py::test_translating_a_large_model_starts_no_collection"),
        ("tests/test_cli.py::TestRun", "tests/test_cli.py::TestRunner"),
        ("tests/test_cli.py", "tests/test_cli.pyc"),
        ("bench", "tests/test_cli.py"),
    ],
    ids=["sibling-functions", "prefix-of-class-name", "prefix-of-file-name",
         "other-directory"],
)
def test_distinct_node_ids_are_accepted(earlier, later):
    assert repeats([PYTEST + earlier, PYTEST + later]) == []


def test_only_pytest_steps_are_compared():
    assert repeats([TIER_1, INSTALL, PYTEST + PARSE_ERRORS, "ctxflow run x"]) == []


@pytest.mark.parametrize(
    "script",
    [
        "python - \"$large\" <<'EOF'\nimport gc\nassert gc.isenabled()\nEOF",
        "sed -i 's/a/b/' tests/fixtures/kiosk/model.yaml\nctxflow run x",
        "ctxflow run x\necho done",
        PYTEST + "-k collector tests/test_petri.py",
        PYTEST + "tests/test_nothing.py",
        PYTEST + "tests/test_cli.py::TestRun::test_no_such_test",
        PYTEST + "tests/test_cli.py::test_deferred_adaptation_is_listed_once",
        PYTEST + "tests/test_cli.py::TestRun\n" + PYTEST + "bench",
        "sed -i 's/1200/0/' tests/test_files.py\n" + BENCH + " --workload run-adapt",
        "python - <<'EOF'\nassert True\nEOF\necho " + BENCH,
    ],
    ids=["heredoc", "sed", "echo", "option", "no-file", "misspelt",
         "outside-its-class", "two-lines", "sed-before-bench", "heredoc-then-bench"],
)
def test_an_inline_check_is_refused(script):
    assert refusal(script)


@pytest.mark.parametrize(
    "script",
    [
        PYTEST + "bench",
        PYTEST + "tests/test_cli.py::TestRun tests/test_petri.py::TestCollectorPause",
        PYTEST + "tests/test_cli.py::TestRun::test_deferred_adaptation_is_listed_once",
    ],
)
def test_a_test_by_name_is_accepted(script):
    assert refusal(script) is None
