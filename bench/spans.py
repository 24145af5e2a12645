"""Tracing from outside the engine: wrap the functions callers look up.

A :class:`Tracer` replaces each hooked attribute (a module function, or a
method on a class) with a wrapper that records a span (name, start, end,
parent span, run id) and the hook's counters, and puts the original object
back on :meth:`Tracer.uninstall`. Spans are kept in flat arrays while the
benchmark runs and written out after it. A hook whose attribute no longer
exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _catch_context(args, result, counts):
    counts["context.catch_context_calls"] += 1
    counts["context.changes"] += result is not args[1]


def _throw_activity(args, result, counts):
    counts["fragments.throw_calls"] += 1
    counts["fragments.comparisons"] += getattr(result, "comparisons", 0)
    counts["fragments.hits"] += getattr(result, "fragment", None) is not None


def _select_rule(args, result, counts):
    counts["chain.select_rule_calls"] += 1
    counts["chain.rule_hits"] += result is not None


def _enabled(args, result, counts):
    counts["petri.enabled_calls"] += 1
    counts["petri.enabled"] += len(result)
    counts["petri.scanned"] += len(args[0].transitions)


def _explore(args, result, counts):
    counts["petri.markings"] += len(result.nodes)
    counts["petri.arcs"] += len(result.arcs)


def _counter(name):
    def observe(args, result, counts):
        counts[name] += 1
    return observe


@dataclass(frozen=True)
class Hook:
    span: Optional[str]  # span name; None counts calls without a span
    module: str
    attribute: str  # "function" or "Class.method"
    observe: Optional[Callable] = None


REWRITES = (
    "add_fragment",
    "replace_activity",
    "replace_attribute",
    "bypass",
    "reorder",
    "data_level_change",
)

# The chain runner finds the graph, context and fragment functions through the
# names ``ctxflow.chain`` imported, so those names are the ones wrapped.
HOOKS = (
    Hook("files.load_bundle", "ctxflow.files", "load_bundle"),
    Hook("graph.validate_graph", "ctxflow.graph", "validate_graph"),
    Hook("graph.instantiate", "ctxflow.chain", "instantiate"),
    Hook("graph.assign_values", "ctxflow.chain", "assign_values"),
    Hook("graph.apply_dependencies", "ctxflow.chain", "apply_dependencies"),
    Hook("graph.compose_value", "ctxflow.chain", "compose_value",
         _counter("graph.evaluations")),
    Hook("context.catch_context", "ctxflow.chain", "catch_context", _catch_context),
    Hook("fragments.throw_activity", "ctxflow.chain", "throw_activity", _throw_activity),
    Hook("chain.run_instance", "ctxflow.chain", "run_instance"),
    Hook("chain.select_rule", "ctxflow.chain", "select_rule", _select_rule),
    *(Hook("chain.rewrite", "ctxflow.chain", name, _counter("chain.rewrite_calls"))
      for name in REWRITES),
    Hook("chain.validate", "ctxflow.chain", "ActivityChain.validate",
         _counter("chain.validate_calls")),
    Hook("petri.translate", "ctxflow.petri", "translate"),
    Hook("petri.explore", "ctxflow.petri", "explore", _explore),
    Hook("petri.enabled", "ctxflow.petri", "enabled", _enabled),
    Hook("petri.fire", "ctxflow.petri", "fire", _counter("petri.fire_calls")),
    Hook(None, "ctxflow.petri", "Net.pre", _counter("petri.pre_calls")),
    Hook("petri.check_bounded", "ctxflow.petri", "check_bounded"),
    Hook("petri.check_liveness", "ctxflow.petri", "check_liveness"),
    Hook("petri.check_reachable", "ctxflow.petri", "check_reachable"),
    Hook("petri.check_home", "ctxflow.petri", "check_home"),
)


def _owner(hook: Hook):
    """The object holding the hooked attribute and its name, or None if gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attribute.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    if not callable(vars(owner).get(name)):
        return None
    return owner, name


class Tracer:
    """Records spans and counters for the hooks it installs."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_kinds: List[str] = []
        self.run_counts: List[Dict[str, int]] = []
        self.absent: List[str] = []
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(len(self.run_kinds) - 1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.span_start[index] = start
        self.span_end[index] = end

    def _wrap(self, hook: Hook, original):
        observe = hook.observe
        counts = lambda: self.run_counts[-1]  # noqa: E731

        if hook.span is None:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(args, result, counts())
                return result
            return counted

        name_id = self._name_id(hook.span)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
            if observe is not None:
                observe(args, result, counts())
            return result
        return traced

    def install(self) -> None:
        for hook in self.hooks:
            found = _owner(hook)
            if found is None:
                self.absent.append("%s.%s" % (hook.module, hook.attribute))
                continue
            owner, name = found
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(hook, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def run(self, kind: str, operation: Callable):
        """Call ``operation`` as one run: a root span named ``kind`` with its own id."""
        self.run_kinds.append(kind)
        self.run_counts.append(defaultdict(int))
        index = self._open(self._name_id(kind))
        start = perf_counter()
        try:
            return operation()
        finally:
            self._close(index, start, perf_counter())

    def per_run(self) -> List[Tuple[str, Dict[str, float], Dict[str, float], Dict[str, int]]]:
        """For each run: its kind, total and self time per span name, and its counts.

        Self time is a span's duration minus the durations of its child
        spans; spans nest on one thread, so children never overlap.
        """
        count = len(self.span_name)
        child_time = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += self.span_end[i] - self.span_start[i]
        totals = [defaultdict(float) for _ in self.run_kinds]
        selfs = [defaultdict(float) for _ in self.run_kinds]
        for i in range(count):
            run = self.span_run[i]
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            totals[run][name] += duration
            selfs[run][name] += duration - child_time[i]
        return [
            (kind, totals[r], selfs[r], self.run_counts[r])
            for r, kind in enumerate(self.run_kinds)
        ]

    def write(self, path) -> None:
        """Write every span as gzipped CSV: run, span, parent, name, start and end in seconds."""
        with gzip.open(path, "wt") as out:
            out.write("run,span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                out.write("%d,%d,%d,%s,%.9f,%.9f\n" % (
                    self.span_run[i], i, self.span_parent[i],
                    self.names[self.span_name[i]],
                    self.span_start[i], self.span_end[i],
                ))
