"""The CLI contract: one sha256 per command line, over what ``ctxflow`` gives back.

Each case runs ``cli.main`` in-process on the kiosk fixture, on a copy of it
with one line edited, on a bundle ``bench/bundlegen.py`` writes from a seed,
or, for ``query``, on the kiosk scenario alone. Its digest covers the exit code, stdout, stderr and every file
written under ``-o``, with the working directory replaced by a fixed token.
``tests/test_contract.py`` checks each digest against
``tests/fixtures/contract.json``. A change that alters a digest on purpose
names each changed case, and why, in CHANGES.md, and then rewrites the file,
from the root of a checkout, with::

    PYTHONPATH=src python tests/contract.py
"""

import hashlib
import io
import itertools
import json
import pathlib
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

TESTS = pathlib.Path(__file__).resolve().parent
CONTRACT = TESTS / "fixtures" / "contract.json"
sys.path.insert(0, str(TESTS.parent / "bench"))

from bundlegen import Shape, generate  # noqa: E402
from ctxflow.cli import main  # noqa: E402
from run import WORKLOADS  # noqa: E402

TOKEN = "<work>"
OUT = "-o"  # stands for ``-o DIR``, with DIR a fresh directory per case
ONTO_FILE = "-o <bundle>"  # stands for ``-o FILE``, with FILE the bundle document
DEEP = "<3000-deep query>"  # stands for a condition in 3,000 parentheses
SPELLED = {DEEP: "AND Network WHERE " + "(" * 3000 + "value = 1" + ")" * 3000}


def _kiosk(name):
    def write(work):
        shutil.copytree(TESTS / "fixtures" / "kiosk", work)
        return work / name
    return write


def _kiosk_edited(document, line, edited):
    """Kiosk with its one ``line`` of ``document`` replaced by ``edited``."""
    def write(work):
        bundle = _kiosk("bundle.yaml")(work)
        path = work / document
        text = path.read_text()
        assert text.count(line) == 1, (document, line)
        path.write_text(text.replace(line, edited))
        return bundle
    return write


SCENARIO = "kiosk-scenario"  # a scenario document alone, which only ``query`` reads


def _generated(shape, seed=1):
    return lambda work: generate(shape, seed, work)[0]


REORDER = "    action: {kind: reorder, order: [L2, L3, L1]}\n"
REORDERS = {
    "kiosk-reorder-%s" % "-".join(order): _kiosk_edited(
        "model.yaml", REORDER, REORDER.replace("L2, L3, L1", ", ".join(order))
    )
    for order in itertools.permutations(("L1", "L2", "L3"))
}
# Kiosk with a delay on one attribute. A delay on ``Receptionist.Status``
# defers ``Patient Registration``, and the four activities after it overtake it.
DELAYS = {
    name: _kiosk_edited(
        "graph.yaml", "  - {name: %s}\n" % attribute,
        "  - {name: %s, delay: %d}\n" % (attribute, delay),
    )
    for name, attribute, delay in (
        ("kiosk-delay", "Weather.Status", 30),
        ("kiosk-delay-120", "Weather.Status", 120),
        ("kiosk-delay-600", "Weather.Status", 600),
        ("kiosk-registration-delay", "Receptionist.Status", 60),
    )
}
SEEDED = {
    "%s-seed-%d" % (name, seed): _generated(WORKLOADS[name].shape, seed)
    for name in ("run-adapt", "run-observe")
    for seed in (2, 3)
}
SHARED = {
    "shared-%d-on-%d" % (a, e): _generated(Shape(activities=a, entities=e, situations=1))
    for a, e in ((2, 1), (4, 2), (5, 1), (6, 3), (9, 8))
}
CHAINS = {"chain-%d" % n: _generated(Shape(activities=n)) for n in range(1, 13)}
BUNDLES = {
    "kiosk": _kiosk("bundle.yaml"),
    "ideal-kiosk": _kiosk("ideal-bundle.yaml"),
    SCENARIO: _kiosk("scenario.yaml"),
    **DELAYS,
    **REORDERS,
    **{name: _generated(w.shape) for name, w in WORKLOADS.items()},
    **SEEDED,
    **SHARED,
    **CHAINS,
}

KIOSK_COMMANDS = (
    ("validate",),
    ("run",),
    ("run", OUT),
    ("run", ONTO_FILE),
    ("verify",),
    ("verify", OUT),
    ("verify", "--limit", "1"),
    ("verify", "--limit", "5"),
    ("verify", "--limit", "100"),
    ("metrics", OUT),
)
# Each query README or ``tests/test_cli.py`` runs on the kiosk scenario,
# among them a parse error (exit 1) and arithmetic errors (exit 2).
NETWORK = "AND Network WHERE parameter INSTANCE_OF Network"
QUERIES = (
    NETWORK,
    NETWORK + " ",
    NETWORK + "\n",
    "AND Caregiver WHERE attr Expertise = Surgery",
    "HUH what",
    "ADD Manpower(HA, Count, =, 1), Manpower(Other, Count, =, 2)",
    *("AND Weather WHERE attr Status = Rainy %s attr Status = Sunny" % joiner
      for joiner in ("or", "Or", "OR")),
    "AND Weather WHERE attr Status = Rainy and attr Status = Sunny"
    " OR attr Status = Cloudy",
    "ADD Manpower(HA, Count, =, inf), Manpower(HA, Count, =, 1)",
    "ADD Manpower(HA, Count, =, 1%s), Manpower(HA, Count, =, 2.5)" % ("0" * 400),
    DEEP,
)
CASES = {
    "%s: %s" % (bundle, " ".join(command)): (bundle, command)
    for bundles, commands in (
        (("kiosk", "ideal-kiosk"), KIOSK_COMMANDS),
        (tuple(DELAYS), (("run",), ("run", OUT))),
        (tuple(REORDERS) + tuple(SEEDED), (("run", OUT),)),
        (tuple(WORKLOADS), (("validate",), ("run",), ("metrics",))),
        (tuple(SHARED), (("validate",), ("run",), ("verify",))),
        (tuple(CHAINS), (("verify",),)),
        ((SCENARIO,), tuple(("query", query) for query in QUERIES)),
    )
    for bundle in bundles
    for command in commands
}


def write_bundles(work):
    """Write every bundle the cases use under ``work``; give each one's path."""
    return {name: write(work / name) for name, write in BUNDLES.items()}


def digest(case, paths, work):
    """The sha256 of what ``case`` gives back, on bundles at ``paths`` under ``work``."""
    bundle, (command, *flags) = CASES[case]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [command, str(paths[bundle])]
    for flag in flags:
        if flag == OUT:
            argv += ["-o", str(out)]
        elif flag == ONTO_FILE:
            argv += ["-o", str(paths[bundle])]
        else:
            argv.append(SPELLED.get(flag, flag))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    outcome = {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "files": {p.relative_to(out).as_posix(): p.read_text() for p in written},
    }
    text = json.dumps(outcome, sort_keys=True).replace(str(work), TOKEN)
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        paths = write_bundles(work)
        return {case: digest(case, paths, work) for case in CASES}


if __name__ == "__main__":
    CONTRACT.write_text(json.dumps(digests(), indent=2) + "\n")
    print("wrote %d digests to %s" % (len(CASES), CONTRACT))
