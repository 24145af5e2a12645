"""Each CLI case of ``tests/contract.py`` gives back, byte for byte, what its
digest in ``tests/fixtures/contract.json`` pins: exit code, stdout, stderr
and every ``-o`` file."""

import json

import pytest

import contract

PINNED = json.loads(contract.CONTRACT.read_text())


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    return contract.write_bundles(work), work


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(contract.CASES)


@pytest.mark.parametrize("case", list(contract.CASES))
def test_the_cli_gives_back_the_pinned_digest(case, bundles):
    paths, work = bundles
    assert contract.digest(case, paths, work) == PINNED[case]
