"""Every generated document parses into the same tree under
``files.load_document``'s loader as under stock ``yaml.SafeLoader``, the
pure-Python loader with PyYAML's own constructor, which serves as its oracle.

The suite runs under each loader (see the ``loader`` fixture), so it checks
libyaml's parser and the event builder of ``files._located``. The mutated
kiosk documents are compared in ``test_loader_mutations.py``.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlegen import ACTIONS, Shape, generate
from oracles import parsed_alike

pytestmark = pytest.mark.usefixtures("loader")


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
