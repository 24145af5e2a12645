"""Command-line front end: validate, run, verify, metrics and query.

Exit codes: 0 success, 1 validation failure, 2 runtime error,
3 verification property failure. Validation happens once, in the loaders:
a document that does not load, or a bundle that is not well formed, is a
``LoadError`` that ``main`` reports as ``invalid: <file>: ...``. All
machine-readable outputs are deterministic — identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .chain import run_instance
from .errors import CtxflowError, LoadError, QueryParseError
from .files import load_bundle, load_scenario
from .metrics import (
    CostParams,
    HalsteadCounts,
    execution_time,
    extended_counts,
    halstead,
    structural_metrics,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_VERIFICATION = 3

COST_FLAGS = ("ta", "tp", "tcm", "tth", "cct")


def _dump(document: dict, path: Path | None) -> str:
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text


def cmd_validate(args) -> int:
    bundle = load_bundle(args.bundle)
    print("ok: bundle validates (%d activities, %d state nodes)" % (
        len(bundle.model.chain), len(bundle.graph.state_nodes)))
    return EXIT_OK


def cmd_run(args) -> int:
    bundle = load_bundle(args.bundle)
    try:
        trace = run_instance(bundle.model, bundle.scenario)
    except (CtxflowError, ValueError) as exc:
        print("run failed: %s" % exc)
        return EXIT_RUNTIME
    # A deferred action is listed once, at the evaluation that chose it.
    evaluations = [e for e in trace.entries if e.kind != "deferred-applied"]
    adaptations = []
    for entry in evaluations:
        if entry.kind not in ("applied", "deferred"):
            continue
        adaptation = {
            "time": entry.timestamp,
            "activity": entry.activity_id,
            "value": entry.value.render(),
            "fragment": entry.fragment_id,
            "action": entry.action,
        }
        if entry.kind == "deferred":
            adaptation["deferred_until"] = entry.deferred_until
        adaptations.append(adaptation)
    summary = {
        "final_order": trace.final_order,
        "adaptations": adaptations,
        "evaluations": len(evaluations),
    }
    outdir = Path(args.out) if args.out else None
    text = _dump(summary, outdir / "summary.json" if outdir else None)
    if outdir:
        log = "\n".join(e.describe() for e in trace.entries)
        (outdir / "trace.log").write_text(log + "\n" if log else "")
        print("wrote %s and %s" % (outdir / "summary.json", outdir / "trace.log"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import petri  # only ``verify`` pays for the net and the explorer

    if args.limit <= 0:
        print("invalid: --limit must be positive, got %d" % args.limit)
        return EXIT_VALIDATION
    bundle = load_bundle(args.bundle)
    try:
        net = petri.translate(bundle.model)
        space = petri.explore(net, limit=args.limit)
    except CtxflowError as exc:
        print("verification aborted: %s" % exc)
        return EXIT_RUNTIME
    goal = petri.goal_marking(net)
    report = {
        "markings": space.node_count,
        "arcs": space.arc_count,
        "partial": space.partial,
    }
    ok = not space.partial
    if space.partial:
        report["verdict"] = "inconclusive: exploration limit reached"
    else:
        bounds = petri.check_bounded(space, k=1, net=net)
        liveness = petri.check_liveness(space, net)
        reachable, witness = petri.check_reachable(space, goal)
        goal_is_only_dead = tuple(liveness.dead_markings) == (goal,)
        home = petri.check_home(space, goal)
        report.update({
            "one_safe": bounds.bounded,
            "bound_violations": sorted(bounds.violations()),
            "dead_transitions": list(liveness.dead_transitions),
            "dead_markings": len(liveness.dead_markings),
            "goal_is_only_dead_marking": goal_is_only_dead,
            "goal_reachable": reachable,
            "witness_length": len(witness),
            "goal_is_home_marking": home,
        })
        ok = (
            bounds.bounded
            and not liveness.dead_transitions
            and goal_is_only_dead
            and reachable
            and home
        )
        report["verdict"] = "pass" if ok else "fail"
    outdir = Path(args.out) if args.out else None
    text = _dump(report, outdir / "report.json" if outdir else None)
    sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _metrics_flag_error(args) -> str | None:
    """The first ``metrics`` flag outside its range, as an error line."""
    floors = dict.fromkeys(COST_FLAGS + ("base_activities", "base_branches"), 0)
    # A Halstead total counts at least its unique elements.
    floors.update(n1=1, n2=1, N1=args.n1, N2=args.n2)
    for name, floor in floors.items():
        value = getattr(args, name)
        if value is not None and not (math.isfinite(value) and value >= floor):
            return "--%s must be a finite number >= %s, got %s" % (
                name.replace("_", "-"), floor, value)
    return None


def cmd_metrics(args) -> int:
    error = _metrics_flag_error(args)
    if error:
        print("invalid: %s" % error)
        return EXIT_VALIDATION
    bundle = load_bundle(args.bundle)
    n = len(bundle.model.chain)
    params = CostParams(
        n=n, t_a=args.ta, t_p=args.tp, t_cm=args.tcm, t_th=args.tth, c_ct=args.cct
    )
    base = HalsteadCounts(args.n1, args.n2, args.N1, args.N2)
    counts = extended_counts(base, n)
    report = {
        "execution_time": {
            "formula": "n * (ta + tp + tcm + tth + Cct)",
            "n": n,
            "value": execution_time(params),
        },
        "structure": structural_metrics(
            bundle.model, base_activity_count=args.base_activities
            if args.base_activities is not None else n,
            base_split_branches=args.base_branches,
        ),
        "halstead": {
            "counts": {"n1": counts.n1, "n2": counts.n2,
                       "N1": counts.N1, "N2": counts.N2},
            **halstead(counts),
        },
    }
    outdir = Path(args.out) if args.out else None
    text = _dump(report, outdir / "metrics.json" if outdir else None)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_query(args) -> int:
    from .query import ContextPredicate, evaluate, parse_query  # only ``query`` needs it

    predicates = []
    for _, contexts in load_scenario(args.cs):
        for ctx in contexts:
            predicates.append(
                ContextPredicate(
                    category=ctx.parameter,
                    subject=ctx.instance or ctx.parameter,
                    attribute=ctx.attribute,
                    connector=ctx.connector,
                    value=ctx.value,
                    instance_of=ctx.parameter,
                )
            )
    try:
        query = parse_query(args.query)
    except QueryParseError as exc:
        print("query error at position %d: %s" % (exc.position, exc))
        return EXIT_VALIDATION
    try:
        result = evaluate(query, predicates)
    except CtxflowError as exc:
        print("query failed: %s" % exc)
        return EXIT_RUNTIME
    print(result.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxflow",
        description="Context-aware process model engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a bundle's artifacts")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a scenario against a bundle")
    p.add_argument("bundle")
    p.add_argument("-o", "--out", help="directory for trace.log and summary.json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="state-space analysis of the generated net")
    p.add_argument("bundle")
    p.add_argument("--limit", type=int, default=100000,
                   help="maximum number of markings to explore")
    p.add_argument("-o", "--out", help="directory for report.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", help="performance and complexity figures")
    p.add_argument("bundle")
    for flag in COST_FLAGS:
        p.add_argument("--%s" % flag, type=float, default=1.0)
    p.add_argument("--n1", type=int, default=1, help="base unique flow elements")
    p.add_argument("--n2", type=int, default=1, help="base unique data objects")
    p.add_argument("--N1", type=int, default=1, help="base total flow elements")
    p.add_argument("--N2", type=int, default=1, help="base total data objects")
    p.add_argument("--base-activities", type=int, default=None,
                   help="baseline activity count (defaults to current chain)")
    p.add_argument("--base-branches", type=int, default=0,
                   help="baseline split-branch count for CFC")
    p.add_argument("-o", "--out", help="directory for metrics.json")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("query", help="evaluate a query over a situation file")
    p.add_argument("cs", help="scenario document supplying the predicates")
    p.add_argument("query", help="query text")
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LoadError as exc:
        print("invalid: %s" % exc)
        return EXIT_VALIDATION
    except CtxflowError as exc:
        print("error (%s): %s" % (type(exc).__name__, exc))
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
