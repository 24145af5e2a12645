"""libyaml's loader parses every generated document into the same tree as
PyYAML's pure-Python loader, which serves as its oracle.

``ctxflow.files`` parses with ``yaml.CSafeLoader`` where PyYAML has it. Only
the scanner and parser differ between the two loaders; the resolver and
constructor are the same Python code. The mutated kiosk documents are
compared in ``test_loader_mutations.py``.
"""

import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from bundlegen import ACTIONS, Shape, generate  # noqa: E402
from oracles import parsed_alike  # noqa: E402

pytestmark = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
)


@st.composite
def shapes(draw):
    deviating = draw(st.booleans())
    return Shape(
        activities=draw(st.integers(1, 12)),
        attributes=draw(st.integers(1, 3)),
        entities=draw(st.integers(0, 4)),
        situations=1 if deviating else draw(st.integers(0, 6)),
        spacing=draw(st.integers(1, 5)),
        duration=draw(st.integers(1, 5)),
        dependency_rules=draw(st.integers(0, 6)),
        dependency_depth=draw(st.integers(1, 3)),
        deviation=draw(st.sampled_from((0.25, 0.5, 1.0))) if deviating else 0.0,
        actions=tuple(draw(st.lists(st.sampled_from(ACTIONS), min_size=1,
                                    max_size=4, unique=True))),
        fragment_rows=draw(st.integers(0, 2)),
        rules_per_activity=draw(st.integers(1 if deviating else 0, 2)),
    )


@given(shape=shapes(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_loaders_agree_on_generated_bundles(shape, seed):
    with tempfile.TemporaryDirectory() as tmp:
        generate(shape, seed, tmp)
        documents = sorted(Path(tmp).glob("*.yaml"))
        assert len(documents) == 5
        for document in documents:
            assert parsed_alike(document.read_text()), document.name
