"""Self-tests of the benchmark: generator, expectations and tracer.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctxflow.chain
import ctxflow.context
import ctxflow.files
import ctxflow.graph
import ctxflow.petri
from bundlegen import Shape, chain_state_space, generate
from run import KIOSK, KIOSK_EXPECTED, WORKLOADS, Engine, run_ok, verify_ok
from spans import HOOKS, Hook, Tracer

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, name):
    shape = WORKLOADS[name].shape
    generate(shape, 7, tmp_path / "a")
    generate(shape, 7, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["bundle.yaml", "graph.yaml", "model.yaml", "repo.yaml", "scenario.yaml"]
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch == [] and errors == []


def test_other_seed_gives_other_files(tmp_path):
    shape = WORKLOADS["run-adapt"].shape
    generate(shape, 1, tmp_path / "a")
    generate(shape, 2, tmp_path / "b")
    assert (tmp_path / "a" / "model.yaml").read_bytes() != (tmp_path / "b" / "model.yaml").read_bytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_chain_closed_form_matches_engine(tmp_path, engine, n):
    path, expect = generate(Shape(activities=n), n, tmp_path)
    assert (expect.markings, expect.arcs) == chain_state_space(n)
    assert verify_ok(engine.verify(engine.setup(path).model), expect)


@pytest.mark.parametrize("n", range(1, 7))
def test_splicing_prediction_matches_engine(tmp_path, engine, n):
    shape = Shape(activities=6 * n, entities=3, situations=1, deviation=0.5,
                  fragment_rows=2, rules_per_activity=2)
    for seed in range(4):
        path, expect = generate(shape, seed, tmp_path / str(seed))
        assert expect.adaptations
        assert run_ok(engine.run(engine.setup(path)), expect)


@pytest.mark.parametrize("n", range(1, 7))
def test_value_prediction_matches_engine(tmp_path, engine, n):
    shape = Shape(activities=4 * n, attributes=3, entities=4, situations=5 * n,
                  duration=2, dependency_rules=30, dependency_depth=4,
                  fragment_rows=1, rules_per_activity=1)
    path, expect = generate(shape, n, tmp_path)
    assert len(expect.values) == shape.activities
    assert run_ok(engine.run(engine.setup(path)), expect)


def test_kiosk_golden_values(engine):
    kiosk = engine.setup(KIOSK)
    assert verify_ok(engine.verify(kiosk.model), KIOSK_EXPECTED)
    assert run_ok(engine.run(kiosk), KIOSK_EXPECTED)


def test_wrong_output_fails_the_check(tmp_path, engine):
    kiosk = engine.setup(KIOSK)
    trace = engine.run(kiosk)
    trace.final_order.reverse()
    assert not run_ok(trace, KIOSK_EXPECTED)
    markings, arcs, verdict, witness = engine.verify(kiosk.model)
    assert not verify_ok((markings + 1, arcs, verdict, witness), KIOSK_EXPECTED)


def _attributes():
    owners = [ctxflow.chain, ctxflow.context, ctxflow.files, ctxflow.graph, ctxflow.petri,
              ctxflow.chain.ActivityChain, ctxflow.petri.Net]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_tracing_restores_module_attributes(engine):
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert ctxflow.chain.catch_context is not before[("ctxflow.chain", "catch_context")]
        kiosk = tracer.run("setup", lambda: engine.setup(KIOSK))
        assert run_ok(tracer.run("run", lambda: engine.run(kiosk)), KIOSK_EXPECTED)
        assert verify_ok(tracer.run("verify", lambda: engine.verify(kiosk.model)), KIOSK_EXPECTED)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.absent == []

    runs = {kind: (total, own, counts) for kind, total, own, counts in tracer.per_run()}
    total, own, counts = runs["run"]
    assert counts["context.catch_context_calls"] == 5
    assert counts["chain.rewrite_calls"] == 5
    assert 0 < own["chain.run_instance"] < total["chain.run_instance"] <= total["run"]
    total, own, counts = runs["verify"]
    assert counts["petri.markings"] == KIOSK_EXPECTED.markings
    assert counts["petri.fire_calls"] == KIOSK_EXPECTED.arcs
    assert counts["petri.pre_calls"] > 0


def test_missing_hook_is_reported_absent():
    tracer = Tracer(HOOKS + (Hook("petri.gone", "ctxflow.petri", "no_such_function"),
                             Hook("nowhere.x", "ctxflow.no_such_module", "x")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ctxflow.petri.no_such_function", "ctxflow.no_such_module.x"]


def test_benchmark_fails_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
