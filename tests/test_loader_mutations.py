"""Mutated kiosk documents never end in a traceback.

Each mutant changes one place in one kiosk document: it drops a key or a
list item, puts a wrong container or a wrong scalar there, or (in the
scenario) adds a situation that goes back in time. ``ctxflow run`` and
``ctxflow verify`` must then both reject the documents with the same
``LoadError`` naming a document (exit 1), or both load them. A loaded bundle
runs (exit 0) or fails its run (exit 2, ``run failed:``), and verifies with
a report (exit 0 or 3) or aborts (exit 2, ``verification aborted:``).
Neither command ever raises, and a run never fails for a state its
activity's state node cannot map (``has no red link``/``has no blue link``):
the loader refuses those. Every mutated document parses into the same tree
under ``files.load_document``'s loader as under stock ``yaml.SafeLoader``,
and the two tests that check this run under each loader (see the ``loader``
fixture).

The sweep pins every single mutant (each place dropped, then set to each
wrong value of another type): one sha256 per document over each mutant's
``validate`` exit code and stdout, and ``query``'s for each scenario mutant.
It runs under the default loader only, in about 10 s. A change that alters
a digest on purpose says why in CHANGES.md and prints the new ones, from
the root of a checkout, with::

    PYTHONPATH=src:tests python tests/test_loader_mutations.py
"""

import collections
import contextlib
import copy
import hashlib
import io
import json
import pathlib
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow import files
from ctxflow.cli import main
from oracles import parsed_alike

KIOSK = pathlib.Path(__file__).parent / "fixtures" / "kiosk"
DOCUMENTS = ("graph.yaml", "repo.yaml", "model.yaml", "scenario.yaml")
ORIGINALS = {
    name: yaml.safe_load((KIOSK / name).read_text()) for name in DOCUMENTS
}
WRONG_CONTAINERS = ({"x": 1}, ["x"], "oops")
WRONG_SCALARS = (7, -3, 1.5, True, None, "oops", ["x"])
DROP = object()  # stands for dropping the place
DEFAULT_LOADER = files._Loader  # before a ``loader`` fixture swaps it
QUERY = "AND Network WHERE parameter INSTANCE_OF Network"


def places(node, at=()):
    """Every (path, value) below the document root, header keys excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        if at or key not in ("version", "kind"):
            yield at + (key,), value
            yield from places(value, at + (key,))


PLACES = {name: list(places(doc)) for name, doc in ORIGINALS.items()}


def wrong_values(value) -> list:
    """Each wrong value of another type than ``value`` for its place."""
    pool = WRONG_CONTAINERS if isinstance(value, (dict, list)) else WRONG_SCALARS
    return [v for v in pool if type(v) is not type(value)]


def mutated(name, path, wrong):
    """Document ``name`` with the place at ``path`` dropped or set to ``wrong``."""
    doc = copy.deepcopy(ORIGINALS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if wrong is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = wrong
    return doc


@st.composite
def mutants(draw):
    kind = draw(st.sampled_from(("drop", "wrong-type", "time-goes-back")))
    if kind == "time-goes-back":
        doc = copy.deepcopy(ORIGINALS["scenario.yaml"])
        # The kiosk's one situation is at 2:00 pm, minute 840.
        earlier = dict(doc["situations"][0], time=draw(st.integers(0, 839)))
        doc["situations"].append(earlier)
        return "scenario.yaml", doc, kind
    name = draw(st.sampled_from(DOCUMENTS))
    path, value = draw(st.sampled_from(PLACES[name]))
    wrong = DROP if kind == "drop" else draw(st.sampled_from(wrong_values(value)))
    return name, mutated(name, path, wrong), kind


def run_mutant(name, doc):
    """(exit code, stdout) of `run` and of `verify` on the mutated bundle,
    and the mutated document's path."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for other in DOCUMENTS + ("bundle.yaml",):
            (tmp / other).write_text((KIOSK / other).read_text())
        text = yaml.safe_dump(doc)
        assert parsed_alike(text)
        (tmp / name).write_text(text)
        results = []
        for command in ("run", "verify"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, str(tmp / "bundle.yaml")])
            results.append((code, out.getvalue()))
        return results, tmp / name


@pytest.mark.usefixtures("loader")
@given(mutant=mutants())
@settings(max_examples=100, deadline=None)
def test_mutated_document_never_raises(mutant):
    name, doc, kind = mutant
    ((code, out), verify), path = run_mutant(name, doc)
    if kind == "time-goes-back":
        assert out.startswith("invalid: %s: situation 1: time goes back" % (path,))
    if code == 1:
        # A mutant may break a reference another document makes.
        assert out.startswith(
            tuple("invalid: %s: " % (path.parent / other,) for other in DOCUMENTS)
        )
        assert verify == (code, out)
        return
    if code == 2:
        assert out.startswith("run failed: ")
        assert "has no red link" not in out and "has no blue link" not in out
    else:
        assert code == 0
    verify_code, verify_out = verify
    if verify_code == 2:
        assert verify_out.startswith("verification aborted: ")
    else:
        assert verify_code in (0, 3)
        assert json.loads(verify_out)["verdict"] in ("pass", "fail")


@pytest.mark.usefixtures("loader")
def test_unmutated_documents_run():
    for name in DOCUMENTS:
        results, _ = run_mutant(name, ORIGINALS[name])
        assert [code for code, _ in results] == [0, 0], results


def sweep(name):
    """The sha256 over each single mutant of document ``name``: its id, and
    the exit code and stdout of ``validate`` (and of ``query``, for the
    scenario) with the work directory replaced by a fixed token; and the
    tally of ``validate``'s exit codes."""
    outcomes, tally = [], collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for other in DOCUMENTS + ("bundle.yaml",):
            (tmp / other).write_text((KIOSK / other).read_text())
        commands = [["validate", str(tmp / "bundle.yaml")]]
        if name == "scenario.yaml":
            commands.append(["query", str(tmp / name), QUERY])
        for path, value in PLACES[name]:
            for wrong in (DROP, *wrong_values(value)):
                (tmp / name).write_text(yaml.safe_dump(mutated(name, path, wrong)))
                mutant = "%s %s" % (
                    "/".join(map(str, path)), "drop" if wrong is DROP else repr(wrong)
                )
                for argv in commands:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(argv)
                    outcomes.append(
                        [mutant, argv[0], code, out.getvalue().replace(str(tmp), "<tmp>")]
                    )
                tally[outcomes[-len(commands)][2]] += 1
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest(), tally


def swept():
    """Each document's ``sweep`` digest, and the tally over all of them."""
    digests, tally = {}, collections.Counter()
    for name in DOCUMENTS:
        digests[name], counts = sweep(name)
        tally.update(counts)
    return digests, dict(tally)


# Written by this module's ``__main__`` (see the module docstring).
SWEPT = {
    "graph.yaml": "b84c41417a99fa3a61837a27c13cf5bbd18e441534c7579536933bf9861671bb",
    "repo.yaml": "0491775fac5602b3d72201905df573ca63bc604baf625828b7cde0a4dbba89e2",
    "model.yaml": "9cf26ce47e9ceb42e605535758fbbab00bdb0b630c5c08f0a1daa9aacfbc5fad",
    "scenario.yaml": "8ee0107ba41b440a019378642d706ef218ed6c3d5369307f3453fdb9ce2b4846",
}
TALLY = {0: 276, 1: 1641}  # mutants by ``validate``'s exit code


def test_every_single_mutant_gives_back_its_pinned_digest(monkeypatch):
    monkeypatch.setattr(files, "_Loader", DEFAULT_LOADER)
    assert swept() == (SWEPT, TALLY)


if __name__ == "__main__":
    digests, tally = swept()
    print("SWEPT = %s" % json.dumps(digests, indent=4))
    print("TALLY = %r" % (dict(sorted(tally.items())),))
