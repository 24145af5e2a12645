"""Process-fragment repository keyed by (sub-goal, composite value).

The repository mirrors the tabular layout used at design time: an indexed
sub-goal list, each sub-goal carrying value-pattern -> fragment rows, plus
the fragment definitions themselves. Sub-goals are found through a name/index
dict built once; lookup is then a linear scan of one sub-goal's rows. The
repository is immutable after load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .errors import AmbiguousEntryError, LoadError, UnknownSubgoalError
from .graph import CompositeValue, composite_from_pairs


@dataclass(frozen=True)
class FragmentActivity:
    name: str
    sub_goal: str = ""
    role: str = ""
    medium: str = ""


@dataclass(frozen=True)
class ProcessFragment:
    id: str
    activities: Tuple[FragmentActivity, ...]

    def __post_init__(self):
        if not self.activities:
            raise ValueError("fragment %r has no activities" % (self.id,))


@dataclass(frozen=True)
class SubgoalEntry:
    index: int  # 1-based; sub-goal K corresponds to activity K
    name: str
    rows: Tuple[Tuple[CompositeValue, str], ...] = ()


@dataclass(frozen=True)
class FragmentRepository:
    subgoals: Tuple[SubgoalEntry, ...]
    fragments: Mapping[str, ProcessFragment]
    _by_key: Dict[object, SubgoalEntry] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # The first entry named or indexed by a key wins, as in a scan of
        # ``subgoals``. An unhashable name cannot equal any hashable key.
        by_key: Dict[object, SubgoalEntry] = {}
        for entry in self.subgoals:
            for key in (entry.name, entry.index):
                try:
                    by_key.setdefault(key, entry)
                except TypeError:
                    pass
        object.__setattr__(self, "_by_key", by_key)

    def subgoal(self, key) -> SubgoalEntry:
        try:
            return self._by_key[key]
        except (KeyError, TypeError):
            raise UnknownSubgoalError(
                "sub-goal %r not in repository" % (key,), subgoal=key
            ) from None


@dataclass(frozen=True)
class ThrowResult:
    value: CompositeValue
    fragment: Optional[ProcessFragment]
    comparisons: int


def throw_activity(
    repo: FragmentRepository, subgoal, value: CompositeValue
) -> ThrowResult:
    """Select the fragment stored for ``(subgoal, value)``, if any.

    Scans the sub-goal's rows in declaration order and returns on the first
    pattern matching the normalized composite value; no match yields a NULL
    fragment. ``comparisons`` reports how many patterns were inspected.
    """
    entry = repo.subgoal(subgoal)
    comparisons = 0
    for pattern, fragment_id in entry.rows:
        comparisons += 1
        if pattern.matches(value):
            return ThrowResult(value, repo.fragments[fragment_id], comparisons)
    return ThrowResult(value, None, comparisons)


def _mapping(spec, where: str, *keys) -> dict:
    """``spec`` if it is a mapping holding ``keys``, else a ``LoadError``."""
    if not isinstance(spec, dict):
        raise LoadError("%s: not a mapping: %r" % (where, spec))
    for key in keys:
        if key not in spec:
            raise LoadError("%s: missing %s" % (where, key))
    return spec


def _list(spec: dict, key: str, where: str = "") -> list:
    items = spec.get(key, [])
    if not isinstance(items, list):
        prefix = "%s: " % where if where else ""
        raise LoadError("%s%s must be a list, not %r" % (prefix, key, items))
    return items


def load_repository(document: dict) -> FragmentRepository:
    """Build a repository from its parsed document, validating invariants.

    A malformed entry raises ``LoadError`` naming it by its position in its
    list, counted from 0: ``fragment 0``, ``fragment 0 activity 1``,
    ``sub-goal 2``, ``sub-goal 2 entry 0``.
    """
    if not isinstance(document, dict):
        raise LoadError("repository document must be a mapping")

    fragments = {}
    for i, spec in enumerate(_list(document, "fragments")):
        where = "fragment %d" % i
        spec = _mapping(spec, where, "id", "activities")
        activities = []
        for k, a in enumerate(_list(spec, "activities", where)):
            a = _mapping(a, "%s activity %d" % (where, k), "name")
            activities.append(
                FragmentActivity(
                    name=a["name"],
                    sub_goal=a.get("sub_goal", ""),
                    role=a.get("role", ""),
                    medium=a.get("medium", ""),
                )
            )
        try:
            frag = ProcessFragment(id=spec["id"], activities=tuple(activities))
            hash(frag)  # its id and activity names become keys
        except (TypeError, ValueError) as exc:
            raise LoadError("%s: %s" % (where, exc)) from None
        if frag.id in fragments:
            raise LoadError("%s: duplicate fragment id %r" % (where, frag.id))
        fragments[frag.id] = frag

    subgoals = []
    for i, spec in enumerate(_list(document, "subgoals")):
        where = "sub-goal %d" % i
        spec = _mapping(spec, where, "name")
        rows = []
        seen = set()
        for k, row in enumerate(_list(spec, "entries", where)):
            at = "%s entry %d" % (where, k)
            row = _mapping(row, at, "value", "fragment")
            fragment_id = row["fragment"]
            try:
                pattern = composite_from_pairs(row["value"], row.get("op", "AND"))
                key = pattern.normalized()
                hash(fragment_id)
            except (TypeError, ValueError) as exc:
                raise LoadError("%s: %s" % (at, exc)) from None
            if key in seen:
                raise AmbiguousEntryError(
                    "duplicate value pattern under sub-goal %r" % (spec["name"],),
                    subgoal=spec["name"],
                )
            seen.add(key)
            if fragment_id not in fragments:
                raise LoadError("%s: unknown fragment %r" % (at, fragment_id))
            rows.append((pattern, fragment_id))
        used = [fid for _, fid in rows]
        if len(used) != len(set(used)):
            raise AmbiguousEntryError(
                "fragment mapped by two value patterns under sub-goal %r"
                % (spec["name"],),
                subgoal=spec["name"],
            )
        subgoals.append(
            SubgoalEntry(
                index=spec.get("index", i + 1),
                name=spec["name"],
                rows=tuple(rows),
            )
        )

    return FragmentRepository(tuple(subgoals), fragments)


def store_repository(repo: FragmentRepository) -> dict:
    """Serialize back to the canonical document form (round-trips load)."""
    return {
        "subgoals": [
            {
                "index": entry.index,
                "name": entry.name,
                "entries": [
                    {
                        "op": pattern.op,
                        "value": [[attr, value] for attr, value in pattern.pairs],
                        "fragment": fragment_id,
                    }
                    for pattern, fragment_id in entry.rows
                ],
            }
            for entry in repo.subgoals
        ],
        "fragments": [
            {
                "id": frag.id,
                "activities": [
                    {
                        "name": a.name,
                        "sub_goal": a.sub_goal,
                        "role": a.role,
                        "medium": a.medium,
                    }
                    for a in frag.activities
                ],
            }
            for frag in repo.fragments.values()
        ],
    }
