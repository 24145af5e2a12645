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
and the suite runs under each loader (see the ``loader`` fixture).
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.cli import main
from oracles import parsed_alike

pytestmark = pytest.mark.usefixtures("loader")

KIOSK = pathlib.Path(__file__).parent / "fixtures" / "kiosk"
DOCUMENTS = ("graph.yaml", "repo.yaml", "model.yaml", "scenario.yaml")
ORIGINALS = {
    name: yaml.safe_load((KIOSK / name).read_text()) for name in DOCUMENTS
}
WRONG_CONTAINERS = ({"x": 1}, ["x"], "oops")
WRONG_SCALARS = (7, -3, 1.5, True, None, "oops", ["x"])


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
    doc = copy.deepcopy(ORIGINALS[name])
    path, value = draw(st.sampled_from(PLACES[name]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        pool = WRONG_CONTAINERS if isinstance(value, (dict, list)) else WRONG_SCALARS
        parent[path[-1]] = draw(
            st.sampled_from([v for v in pool if type(v) is not type(value)])
        )
    return name, doc, kind


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


def test_unmutated_documents_run():
    for name in DOCUMENTS:
        results, _ = run_mutant(name, ORIGINALS[name])
        assert [code for code, _ in results] == [0, 0], results
