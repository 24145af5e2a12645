"""Benchmark of the ctxflow engine's ``run`` and ``verify`` operations.

Usage, from the root of a checkout::

    python3 bench/run.py --workload run-adapt --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's bundle from the seed, loads it, and
then, in one process with one caller and no threads, repeats the workload's
operation in a closed loop for ``--seconds``. The operation the workload's
bundle does not exercise (``verify`` for the run workloads, ``run`` for
``verify-chain``) is timed on the kiosk fixture in ``bench/kiosk`` between
repetitions, and so is set-up. Every output is checked, outside the timed
region, against an expectation that does not come from the engine, and the
kiosk golden values are checked. Times are reported at reference speed (see
``SpeedMeter`` and ``Op``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` the same loop runs untraced, then again
with every hook of ``spans.HOOKS`` wrapped, and the JSON holds the per-layer
metrics; the spans are written to ``bench/out/``. The engine's log output
goes to stderr as users get it, and stderr is discarded.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from bundlegen import Expectation, Shape, generate  # noqa: E402
from spans import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: Shape
    operation: str  # "run" or "verify": what the generated bundle is used for


# Why each workload: verify-chain puts nearly all time into the petri state-space
# explorer; run-adapt into the chain runner's walk and rewrites (validate after
# each) with light ingestion; run-observe into situation ingestion (catch_context
# and diff, situations x activities calls) and the dependency fixpoint, with
# the chain read-only, so a runner change that slows ingestion shows there.
WORKLOADS = {
    "verify-chain": Workload(Shape(activities=12), "verify"),
    "run-adapt": Workload(
        Shape(activities=800, entities=8, situations=1, deviation=0.5,
              fragment_rows=1, rules_per_activity=1),
        "run",
    ),
    "run-observe": Workload(
        Shape(activities=100, attributes=2, entities=10, situations=400,
              spacing=1, duration=5, dependency_rules=200, dependency_depth=4,
              fragment_rows=2, rules_per_activity=1),
        "run",
    ),
}

KIOSK = BENCH / "kiosk" / "bundle.yaml"
KIOSK_EXPECTED = Expectation(
    markings=343,
    arcs=698,
    witness=58,
    final_order=[
        "Patient Registration",
        "Patient Medical Info Collection",
        "Treatment",
        "Appointment Fixing",
        "Arrangement of Ambulance",
        "Transfer Patient",
        "Bill Payment",
        "Storage in Cloud",
    ],
    adaptations=[
        ("Patient Registration", "replace_role(Z)", None),
        ("Patient Medical Info Collection", "data_change(Patient Condition Serious)", None),
        ("Treatment", "add_after", "transfer_fragment"),
        ("Storage in Cloud", "reorder(L2->L3->L1)", None),
        ("Bill Payment", "replace_medium(cash)", None),
    ],
    evaluations=5,
)

EXPLORE_LIMIT = 100000  # the `ctxflow verify` default
SETUP_MIN_SAMPLES = 5
SETUP_SHARE = 0.15  # set-up time as a share of the loop's time
BATCH_SECONDS = 0.1  # calls shorter than this are timed in batches this long
COMPANION_SHARE = 0.15  # kiosk time per loop iteration, as a share of the workload op
TRACED_REPEATS = 10  # bounds the spans a traced run keeps in memory
PROBE_INTERVAL = 0.05  # seconds between speed probes while a sample runs
# Seconds the probe work takes on an otherwise idle 2.0 GHz Xeon VM (Python 3.11).
REFERENCE_PROBE_S = 0.0004


def _probe_work():
    """Fixed work that never touches the engine: dict updates keyed by
    formatted strings, then a sort, as in the engine's own inner loops."""
    rows = {}
    for i in range(300):
        key = ("k%d" % (i * 7919 % 2003), i % 17)
        rows[key] = rows.get(key, 0) + i
    return sorted(rows.items())


class SpeedMeter:
    """Measures the host's speed while a sample runs.

    The shared host's CPU speed changes by up to 2x from one second to the
    next. Once before the sample and then on a timer signal every
    PROBE_INTERVAL, the meter times the probe work, with the garbage
    collector off so the engine's live objects do not count. Signal handlers
    run between bytecodes of the main thread; no thread is started.
    ``spent`` is the time the handlers took during the sample.
    """

    def __enter__(self):
        self.probes = []
        self.spent = 0.0
        self._tick()
        self.spent = 0.0  # that probe ran before the sample
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _tick(self, *_):
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            _probe_work()
        finally:
            if collecting:
                gc.enable()
        self.probes.append(perf_counter() - start)
        self.spent += perf_counter() - start


class Engine:
    """The engine's entry points, looked up on their modules at every call
    so that the tracer's wrappers take effect."""

    def __init__(self):
        from ctxflow import chain, files, graph, petri

        self.chain, self.files, self.graph, self.petri = chain, files, graph, petri

    def setup(self, path):
        bundle = self.files.load_bundle(path)
        report = self.graph.validate_graph(bundle.graph)
        if not report.ok:
            raise RuntimeError("generated graph has findings: %s" % (report.codes(),))
        return bundle

    def verify(self, model):
        """translate + explore + the five checks of `ctxflow verify`."""
        petri = self.petri
        net = petri.translate(model)
        space = petri.explore(net, limit=EXPLORE_LIMIT)
        if space.partial:
            return space.node_count, space.arc_count, "inconclusive", 0
        goal = petri.goal_marking(net)
        bounds = petri.check_bounded(space, k=1, net=net)
        liveness = petri.check_liveness(space, net)
        reachable, witness = petri.check_reachable(space, goal)
        home = petri.check_home(space, goal)
        ok = (
            bounds.bounded
            and not liveness.dead_transitions
            and tuple(liveness.dead_markings) == (goal,)
            and reachable
            and home
        )
        return space.node_count, space.arc_count, "pass" if ok else "fail", len(witness)

    def run(self, bundle):
        return self.chain.run_instance(bundle.model, bundle.scenario)


def verify_ok(output, expect: Expectation) -> bool:
    return output == (expect.markings, expect.arcs, "pass", expect.witness)


def run_ok(trace, expect: Expectation) -> bool:
    if trace.final_order != expect.final_order or len(trace.entries) != expect.evaluations:
        return False
    actions = [(e.activity_id, e.action, e.fragment_id) for e in trace.actions]
    if actions != expect.adaptations:
        return False
    if expect.values:
        got = {e.activity_id: e.value.pairs if e.value else None for e in trace.entries}
        return got == expect.values
    return True


class Op:
    """One operation, its samples and the check of its outputs.

    A sample is the mean time of one batch of calls (one call when a call
    takes BATCH_SECONDS or more). ``raw`` holds the measured seconds, less
    the speed probes. ``times`` holds the same seconds at reference speed:
    scaled by REFERENCE_PROBE_S over the mean probe time during the batch.
    """

    def __init__(self, kind, call, check, size=0):
        self.kind = kind  # "setup", "run" or "verify"
        self.call = call
        self.check = check
        self.size = size  # markings or trace entries, for the throughput metrics
        self.raw = []
        self.times = []
        self.probes = []
        self.calls = 0
        self.failed = 0


def sample(op: Op, tracer=None) -> float:
    """Time one batch of ``op``; check its outputs afterwards. Returns the
    measured seconds of the batch.

    A full collection first leaves the heap as a fresh `ctxflow` process
    has it after loading, so the collector's work during the sample does
    not depend on the samples before it.
    """
    gc.collect()
    outputs = []
    with SpeedMeter() as meter:
        start = perf_counter()
        while True:
            outputs.append(tracer.run(op.kind, op.call) if tracer else op.call())
            elapsed = perf_counter() - start
            if elapsed >= BATCH_SECONDS:
                break
    op.raw.append((elapsed - meter.spent) / len(outputs))
    op.times.append(op.raw[-1] * REFERENCE_PROBE_S / statistics.fmean(meter.probes))
    op.probes += meter.probes
    op.calls += len(outputs)
    op.failed += sum(not op.check(output) for output in outputs)
    return elapsed


def closed_loop(main: Op, companion: Op, setup: Op, seconds: float, tracer=None,
                repeats=None) -> None:
    """Sample ``main`` for ``seconds`` (and at most ``repeats`` times).

    After each sample of ``main``, sample ``companion`` until it has used
    COMPANION_SHARE of that sample's time, and ``setup`` until set-up has
    used SETUP_SHARE of the loop's time so far. Spreading set-up over the
    whole loop exposes it to the same changes in host speed as the rest.
    """
    begin = perf_counter()
    setup_spent = 0.0
    while True:
        budget = COMPANION_SHARE * sample(main, tracer)
        spent = 0.0
        while spent < budget:
            spent += sample(companion, tracer)
        while setup_spent < SETUP_SHARE * (perf_counter() - begin):
            setup_spent += sample(setup, tracer)
        if perf_counter() - begin >= seconds or len(main.times) == repeats:
            break
    while len(setup.times) < SETUP_MIN_SAMPLES:
        sample(setup, tracer)


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it, nearest rank."""
    ordered = sorted(samples)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return "p%d" % p, ordered[rank - 1]
    return None, None


def describe(name, op: Op):
    """One report line: median and tail at reference speed, measured median."""
    label, value = tail(op.times)
    spread = "%s %.6g" % (label, value) if label else "no tail (<11 samples)"
    return "%-16s median %-11.6g s  %-22s samples %-5d calls %-6d measured median %.6g s" % (
        name, statistics.median(op.times), spread, len(op.times), op.calls,
        statistics.median(op.raw))


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float):
    """Per-layer metrics: medians over the traced runs of the kind each layer
    serves (set-up, run or verify)."""
    runs = tracer.per_run()

    def med(kind, pick):
        values = [pick(t, s, c) for k, t, s, c in runs if k == kind]
        return statistics.median(values) if values else 0.0

    def total(kind, name):
        return med(kind, lambda t, s, c: t.get(name, 0.0))

    def count(kind, name):
        return med(kind, lambda t, s, c: c.get(name, 0))

    m = {
        "files.load_bundle_s": total("setup", "files.load_bundle"),
        "graph.validate_graph_s": total("setup", "graph.validate_graph"),
    }
    for name in ("instantiate", "assign_values", "apply_dependencies", "compose_value"):
        m["graph.%s_s" % name] = total("run", "graph." + name)
    m["graph.evaluations"] = count("run", "graph.evaluations")
    m["context.catch_context_s"] = total("run", "context.catch_context")
    m["context.catch_context_calls"] = count("run", "context.catch_context_calls")
    m["context.change_ratio"] = med("run", lambda t, s, c: ratio(
        c.get("context.changes", 0), c.get("context.catch_context_calls", 0)))
    m["fragments.throw_activity_s"] = total("run", "fragments.throw_activity")
    m["fragments.throw_calls"] = count("run", "fragments.throw_calls")
    m["fragments.comparisons"] = count("run", "fragments.comparisons")
    m["fragments.hit_ratio"] = med("run", lambda t, s, c: ratio(
        c.get("fragments.hits", 0), c.get("fragments.throw_calls", 0)))
    m["chain.run_instance_s"] = total("run", "chain.run_instance")
    m["chain.runner_self_s"] = med("run", lambda t, s, c: s.get("chain.run_instance", 0.0))
    m["chain.select_rule_s"] = total("run", "chain.select_rule")
    m["chain.select_rule_calls"] = count("run", "chain.select_rule_calls")
    m["chain.rule_hit_ratio"] = med("run", lambda t, s, c: ratio(
        c.get("chain.rule_hits", 0), c.get("chain.select_rule_calls", 0)))
    m["chain.rewrite_s"] = total("run", "chain.rewrite")
    m["chain.rewrite_calls"] = count("run", "chain.rewrite_calls")
    m["chain.validate_s"] = total("run", "chain.validate")
    m["chain.validate_calls"] = count("run", "chain.validate_calls")
    m["petri.translate_s"] = total("verify", "petri.translate")
    m["petri.explore_s"] = total("verify", "petri.explore")
    m["petri.explore_self_s"] = med("verify", lambda t, s, c: s.get("petri.explore", 0.0))
    m["petri.enabled_s"] = total("verify", "petri.enabled")
    m["petri.enabled_calls"] = count("verify", "petri.enabled_calls")
    m["petri.enabled_ratio"] = med("verify", lambda t, s, c: ratio(
        c.get("petri.enabled", 0), c.get("petri.scanned", 0)))
    m["petri.pre_calls"] = count("verify", "petri.pre_calls")
    m["petri.fire_s"] = total("verify", "petri.fire")
    m["petri.fire_calls"] = count("verify", "petri.fire_calls")
    m["petri.new_marking_ratio"] = med("verify", lambda t, s, c: ratio(
        c.get("petri.markings", 0) - 1, c.get("petri.fire_calls", 0)))
    for check in ("bounded", "liveness", "reachable", "home"):
        m["petri.check_%s_s" % check] = total("verify", "petri.check_" + check)
    m["petri.markings"] = count("verify", "petri.markings")
    m["petri.arcs"] = count("verify", "petri.arcs")
    m["trace.overhead_s"] = overhead_s

    # Shares that show what each workload spends its time on.
    shares = {
        "explore/verify": ratio(m["petri.explore_s"], total("verify", "verify")),
        "catch_context/run_instance": ratio(m["context.catch_context_s"], m["chain.run_instance_s"]),
        "graph/run_instance": ratio(
            sum(m["graph.%s_s" % n] for n in
                ("instantiate", "assign_values", "apply_dependencies", "compose_value")),
            m["chain.run_instance_s"]),
        "(runner_self+rewrite)/run_instance": ratio(
            m["chain.runner_self_s"] + m["chain.rewrite_s"], m["chain.run_instance_s"]),
    }
    return m, shares


UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctxflow" / "__init__.py").is_file() or not KIOSK.is_file():
        print("bench: run from a checkout holding src/ctxflow and bench/kiosk",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    engine = Engine()
    real_stderr, sys.stderr = sys.stderr, open(os.devnull, "w")

    workload = WORKLOADS[args.workload]
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="bundle-", dir=BENCH / ".work")
    try:
        path, expect = generate(workload.shape, args.seed, workdir)
        return measure(engine, args, workload, path, expect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        sys.stderr.close()
        sys.stderr = real_stderr


def measure(engine, args, workload, path, expect) -> int:
    kiosk = engine.setup(KIOSK)
    golden = [
        verify_ok(engine.verify(kiosk.model), KIOSK_EXPECTED),
        run_ok(engine.run(kiosk), KIOSK_EXPECTED),
    ]

    def setup_op():
        return Op("setup", lambda: engine.setup(path),
                  lambda b: len(b.model.chain) == workload.shape.activities)

    def ops():
        """Fresh ops: the workload's own operation and the kiosk companion."""
        run_kiosk = Op("run", lambda: engine.run(kiosk),
                       lambda t: run_ok(t, KIOSK_EXPECTED), KIOSK_EXPECTED.evaluations)
        verify_kiosk = Op("verify", lambda: engine.verify(kiosk.model),
                          lambda o: verify_ok(o, KIOSK_EXPECTED), KIOSK_EXPECTED.markings)
        if workload.operation == "verify":
            return Op("verify", lambda: engine.verify(bundle.model),
                      lambda o: verify_ok(o, expect), expect.markings), run_kiosk
        return Op("run", lambda: engine.run(bundle),
                  lambda t: run_ok(t, expect), expect.evaluations), verify_kiosk

    bundle = engine.setup(path)
    warm = ops()
    for op in warm:  # untimed pass: lets lazy set-up finish before the loop
        op.failed += not op.check(op.call())
        op.calls += 1

    main_op, companion = ops()
    setup = setup_op()
    closed_loop(main_op, companion, setup, args.seconds)
    checked = [*warm, main_op, companion, setup]

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_main, traced_companion = ops()
            traced_setup = setup_op()
            closed_loop(traced_main, traced_companion, traced_setup, args.seconds,
                        tracer, TRACED_REPEATS)
        finally:
            tracer.uninstall()
        checked += [traced_main, traced_companion, traced_setup]

    attempted = len(golden) + sum(op.calls for op in checked)
    failed = golden.count(False) + sum(op.failed for op in checked)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    by_kind = {op.kind: op for op in (main_op, companion)}
    run_op, verify_op = by_kind["run"], by_kind["verify"]
    print("workload %s seed %d: %s on the generated bundle, %s on kiosk; "
          "%d outputs checked, %d failed (failed_ratio %.6g); kiosk golden %s"
          % (args.workload, args.seed, main_op.kind, companion.kind, attempted,
             failed, ratio(failed, attempted), "ok" if all(golden) else "FAILED"))
    print("times at reference speed (probe %.4g s); measured probe median %.4g s"
          % (REFERENCE_PROBE_S, statistics.median(main_op.probes)))
    print(describe("setup_s", setup))
    print(describe("verify_s", verify_op))
    print(describe("run_s", run_op))

    if not args.trace:
        verify_s = statistics.median(verify_op.times)
        run_s = statistics.median(run_op.times)
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "verify_s": (verify_s, "s"),
            "markings_per_s": (verify_op.size / verify_s, "1/s"),
            "run_s": (run_s, "s"),
            "evaluations_per_s": (run_op.size / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        overhead = statistics.median(traced_main.times) - statistics.median(main_op.times)
        values, shares = layer_metrics(tracer, overhead)
        print(describe("traced " + main_op.kind, traced_main))
        for name, share in shares.items():
            print("share %-36s %.3f" % (name, share))
        if tracer.absent:
            print("absent hooks (reported as 0): %s" % ", ".join(tracer.absent))
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / ("%s-seed%d-spans.csv.gz" % (args.workload, args.seed))
        tracer.write(spans_path)
        print("spans written to %s" % spans_path.relative_to(ROOT))
        metrics = {name: (value, unit_of(name)) for name, value in values.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
