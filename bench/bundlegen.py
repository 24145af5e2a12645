"""Seeded generator of ctxflow bundles and of the results the engine must give.

A :class:`Shape` describes a bundle by its knobs; :func:`generate` turns a
shape and a seed into the four project documents plus a bundle document, and
into an :class:`Expectation` that is derived from the generator's own plan,
never from the engine:

* verify: the state-space size of a chain of one-attribute activities on
  their own entities follows a closed form (markings ``8n^2 + 2n + 1``, arcs
  ``16n^2 - 6n``) and the choice-free net reaches its goal by firing each of
  its ``10n`` transitions once;
* run: the final execution order and the adaptation list follow from
  splicing a plain list in activity order, and for models without rewrites
  each activity's composite value follows from the last situation that
  mentioned its entity and the dependency rules between its own attributes.

The same shape and seed always give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ACTIONS = (
    "add_before",
    "add_after",
    "replace_fragment",
    "bypass",
    "reorder",
    "replace_role",
    "replace_medium",
    "data_change",
)
FRAGMENT_ACTIONS = ("add_before", "add_after", "replace_fragment")

START_TIME = 480  # minutes since midnight of the first situation
VALUES = 3  # observed values cycle through v0..v2, so consecutive mentions differ


@dataclass(frozen=True)
class Shape:
    """Knobs of a generated bundle.

    Every activity observes ``attributes`` attributes of one entity. With
    ``entities`` = 0 each activity has an entity of its own; otherwise the
    activities share a pool of that many entities round-robin. The engine
    binds only the attributes a situation changed, and a composite value
    needs all of an activity's attributes, so a situation that mentions an
    entity changes every attribute of it.
    """

    activities: int
    attributes: int = 1
    entities: int = 0
    situations: int = 0
    spacing: int = 1  # minutes between consecutive situations
    duration: int = 1  # minutes each chain activity takes
    dependency_rules: int = 0
    dependency_depth: int = 1  # attributes linked into chains of this many rules
    deviation: float = 0.0  # share of activities whose value matches a rule
    actions: Tuple[str, ...] = ACTIONS  # mix dealt out evenly to deviations
    fragment_rows: int = 0  # non-matching rows per sub-goal
    rules_per_activity: int = 0  # at least 1 for a deviating activity

    def __post_init__(self):
        if self.activities < 1 or self.attributes < 1:
            raise ValueError("a bundle needs at least one activity and attribute")
        if self.deviation and not self.rules_per_activity:
            raise ValueError("deviating activities need rules")
        if self.deviation and self.situations != 1:
            # Deviations are planned against the values of the one situation.
            raise ValueError("a deviating shape has exactly one situation")
        for kind in self.actions:
            if kind not in ACTIONS:
                raise ValueError("unknown action %r" % (kind,))


@dataclass
class Expectation:
    """What a correct engine returns for the generated bundle."""

    markings: int = 0
    arcs: int = 0
    witness: int = 0
    final_order: List[str] = field(default_factory=list)
    adaptations: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    evaluations: int = 0
    # activity id -> expected composite pairs; only for bundles without rewrites
    values: Dict[str, Tuple[Tuple[str, str], ...]] = field(default_factory=dict)


def chain_state_space(n: int) -> Tuple[int, int]:
    """Markings and state-space arcs of the net of an n-activity chain.

    Holds for chains whose activities each observe one attribute of an
    entity of their own.
    """
    return 8 * n * n + 2 * n + 1, 16 * n * n - 6 * n


def _doc(kind: str, sections: Dict[str, list]) -> str:
    lines = ["version: 1", "kind: %s" % kind]
    for name, items in sections.items():
        if not items:
            lines.append("%s: []" % name)
            continue
        lines.append("%s:" % name)
        lines.extend("  - " + json.dumps(item) for item in items)
    return "\n".join(lines) + "\n"


def _describe(kind: str, spec: dict) -> str:
    if kind == "replace_role":
        return "replace_role(%s)" % spec["role"]
    if kind == "replace_medium":
        return "replace_medium(%s)" % spec["medium"]
    if kind == "reorder":
        return "reorder(%s)" % "->".join(spec["order"])
    if kind == "data_change":
        return "data_change(%s)" % "+".join(sorted(spec["data"]))
    return kind


def _plan_deviations(shape: Shape, ids: List[str], rng: random.Random) -> Dict[int, str]:
    """Pick the deviating activities and deal the action mix out to them.

    Exact counts keep the amount of work the same from seed to seed. A
    reorder swaps an activity with its successor, so it is placed only where
    both neighbours exist and do not deviate: then plain list splicing in
    activity order predicts the execution order.
    """
    n = len(ids)
    count = round(shape.deviation * n)
    deviating = sorted(rng.sample(range(n), count))
    chosen = set(deviating)
    kinds = [shape.actions[k % len(shape.actions)] for k in range(count)]
    eligible = [
        i for i in deviating
        if 0 < i < n - 1 and i - 1 not in chosen and i + 1 not in chosen
    ]
    reorder_at = set(rng.sample(eligible, min(kinds.count("reorder"), len(eligible))))
    rest = [k for k in kinds if k != "reorder"]
    rest += ["data_change"] * (count - len(reorder_at) - len(rest))
    rng.shuffle(rest)
    plan = {}
    for i in deviating:
        plan[i] = "reorder" if i in reorder_at else rest.pop()
    return plan


def generate(shape: Shape, seed: int, outdir) -> Tuple[Path, Expectation]:
    """Write the bundle for ``shape`` under ``outdir``; return its path and expectation."""
    rng = random.Random(seed)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = shape.activities
    pool = shape.entities or n
    entities = ["E%03d" % k for k in range(pool)]
    attr_names = ["a%d" % j for j in range(shape.attributes)]
    qualified = {e: ["%s.%s" % (e, a) for a in attr_names] for e in entities}
    ids = ["A%04d" % i for i in range(n)]
    entity_of = {aid: entities[i % pool] for i, aid in enumerate(ids)}

    # -- scenario: each situation changes every attribute of the entities it names
    offsets = {e: rng.randrange(VALUES) for e in entities}
    mentions = {e: 0 for e in entities}
    history: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = {e: [] for e in entities}
    per_situation = pool if shape.situations == 1 else max(1, pool // 3)
    situations = []
    for s in range(shape.situations):
        time = START_TIME + s * shape.spacing
        contexts = []
        for e in sorted(rng.sample(entities, per_situation)):
            mentions[e] += 1
            values = tuple(
                "v%d" % ((mentions[e] + offsets[e] + j) % VALUES)
                for j in range(shape.attributes)
            )
            history[e].append((time, values))
            contexts.extend(
                {"parameter": e, "attribute": a, "value": v}
                for a, v in zip(attr_names, values)
            )
        situations.append({"time": time, "contexts": contexts})
    first_values = {e: h[0][1] for e, h in history.items() if h}

    # -- dependency rules: chains over consecutive attributes, one antecedent
    # attribute per target, so at most one rule fires per target and pass.
    order = [q for e in entities for q in qualified[e]]
    links = [
        (order[k], order[k + 1])
        for k in range(len(order) - 1)
        if (k + 1) % (shape.dependency_depth + 1) != 0
    ]
    dep_rules = []
    fired: Dict[Tuple[str, str, str], str] = {}  # (source, target, when) -> then
    for r in range(shape.dependency_rules if links else 0):
        source, target = links[r % len(links)]
        slot = r // len(links)
        when = "v%d" % slot if slot < VALUES else "decoy%d" % slot
        then = "w%d" % rng.randrange(4)
        dep_rules.append({"kind": "partial", "if": [[source, when]], "then": [target, then]})
        fired[(source, target, when)] = then

    used = sorted({entity_of[a] for a in ids})
    graph = {
        "entities": [{"name": e} for e in used],
        "attributes": [{"name": q} for e in used for q in qualified[e]],
        "dependency_rules": dep_rules,
        "state_nodes": [
            {"id": aid, "parameters": [entity_of[aid]], "attributes": qualified[entity_of[aid]]}
            for aid in ids
        ],
    }

    # -- adaptations: deviating activities match one of their rules
    plan = _plan_deviations(shape, ids, rng)
    fillers = ["X%02d" % k for k in range(shape.fragment_rows)]
    fragments = [
        {"id": f, "activities": [{"name": "%s_1" % f}]} for f in fillers
    ]
    subgoals = []
    rules = []
    order_expected = list(ids)
    adaptations = []
    for i, aid in enumerate(ids):
        e = entity_of[aid]
        observed = list(zip(qualified[e], first_values.get(e, ())))
        kind = plan.get(i)
        frag_id = None
        rows = [
            {"value": [[qualified[e][0], "row%d" % k]], "fragment": f}
            for k, f in enumerate(fillers)
        ]
        if kind in FRAGMENT_ACTIONS:
            frag_id = "F%04d" % i
            new_ids = ["%s_1" % frag_id, "%s_2" % frag_id]
            fragments.append({"id": frag_id, "activities": [{"name": x} for x in new_ids]})
            rows.insert(rng.randint(0, len(rows)), {"value": observed, "fragment": frag_id})
        subgoals.append({"name": "G%04d" % i, "entries": rows})

        own = [
            {"activity": aid, "value": {"pairs": [[qualified[e][0], "never%d" % k]]},
             "action": {"kind": "bypass"}}
            for k in range(shape.rules_per_activity - (1 if kind else 0))
        ]
        if kind:
            spec = {"kind": kind}
            if kind == "replace_role":
                spec["role"] = "R%d" % rng.randrange(10)
            elif kind == "replace_medium":
                spec["medium"] = "M%d" % rng.randrange(10)
            elif kind == "data_change":
                spec["data"] = sorted(rng.sample(["D%d" % k for k in range(6)], rng.randint(1, 2)))
            elif kind == "reorder":
                spec["order"] = ["L2", "L3", "L1"]
            rule = {"activity": aid, "value": {"pairs": observed}, "action": spec}
            if frag_id:
                rule["fragment"] = frag_id
            own.insert(rng.randint(0, len(own)), rule)
            adaptations.append((aid, _describe(kind, spec), frag_id))
            at = order_expected.index(aid)
            if kind == "add_before":
                order_expected[at:at] = new_ids
            elif kind == "add_after":
                order_expected[at + 1:at + 1] = new_ids
            elif kind == "replace_fragment":
                order_expected[at:at + 1] = new_ids
            elif kind == "bypass":
                del order_expected[at]
            elif kind == "reorder":
                order_expected[at], order_expected[at + 1] = order_expected[at + 1], aid
        rules.extend(own)

    model = {
        "activities": [
            {"id": aid, "sub_goal": "G%04d" % i, "duration": shape.duration}
            for i, aid in enumerate(ids)
        ],
        "ideal": [
            {"parameter": e, "attribute": a, "value": "ideal"}
            for e in used for a in attr_names
        ],
        "rules": rules,
    }

    expect = Expectation(
        final_order=order_expected, adaptations=adaptations, evaluations=n
    )
    if shape.entities == 0 and shape.attributes == 1:
        expect.markings, expect.arcs = chain_state_space(n)
        expect.witness = 10 * n
    if not plan:
        for i, aid in enumerate(ids):
            e = entity_of[aid]
            clock = START_TIME + i * shape.duration
            seen = [v for t, v in history[e] if t <= clock]
            bound = dict(zip(qualified[e], seen[-1] if seen else ["ideal"] * shape.attributes))
            while True:  # every pass applies all rule writes at once
                writes = {
                    target: then
                    for (source, target, when), then in fired.items()
                    if source in bound and target in bound and bound[source] == when
                }
                changed = {t: v for t, v in writes.items() if bound[t] != v}
                if not changed:
                    break
                bound.update(changed)
            expect.values[aid] = tuple(bound.items())

    documents = {
        "graph.yaml": _doc("context-graph", graph),
        "repo.yaml": _doc("fragment-repository", {"subgoals": subgoals, "fragments": fragments}),
        "model.yaml": _doc("process-model", model),
        "scenario.yaml": _doc("scenario", {"situations": situations}),
        "bundle.yaml": (
            "version: 1\nkind: bundle\ngraph: graph.yaml\nrepository: repo.yaml\n"
            "model: model.yaml\nscenario: scenario.yaml\n"
        ),
    }
    for name, text in documents.items():
        (outdir / name).write_text(text)
    return outdir / "bundle.yaml", expect
