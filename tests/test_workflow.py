"""The CI workflow runs checks that live in the test suite, not its own.

Each ``run:`` step must be the install line, the tier-1 command, a pytest
call on test files and the classes and functions they define, a step that
runs the benchmark with no heredoc or ``sed`` line in it, or lines that
each call the installed ``ctxflow`` command. A check written inline in the
workflow would run only in CI, so no tier-1 run would ever see it fail.
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


def run_steps():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step["name"], step["run"]


def test_every_step_runs_a_known_entry_point():
    assert [(name, refusal(run)) for name, run in run_steps() if refusal(run)] == []


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
