"""Process-fragment repository keyed by (sub-goal, composite value).

The repository mirrors the tabular layout used at design time: an indexed
sub-goal list, each sub-goal carrying value-pattern -> fragment rows, plus
the fragment definitions themselves. Sub-goals are found through a name/index
dict built once; lookup is then a linear scan of one sub-goal's rows. The
repository is immutable after load; ``files.load_repository`` builds it from
its document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .errors import UnknownSubgoalError
from .graph import CompositeValue


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
                "sub-goal %r not in repository" % (key,)
            ) from None


@dataclass(frozen=True)
class ThrowResult:
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
            return ThrowResult(repo.fragments[fragment_id], comparisons)
    return ThrowResult(None, comparisons)
