"""Process-fragment repository keyed by (sub-goal, composite value).

The repository mirrors the tabular layout used at design time: an indexed
sub-goal list, each sub-goal carrying value-pattern -> fragment rows, plus
the fragment definitions themselves. Sub-goals are found through a name/index
dict, fragments through a (sub-goal position, pattern key) dict, which reads
each row pattern's ``CompositeValue.key``; both are built once. The
repository is immutable after load; ``files.load_repository`` builds it
from its document.
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
    _positions: Dict[object, int] = field(init=False, repr=False, compare=False)
    _rows: Dict[Tuple[int, object], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The first entry named or indexed by a key wins, and the first row of
        # an entry with a pattern, as in a scan; an unhashable name equals no
        # hashable key. Entries may share an index, so rows key by position.
        positions: Dict[object, int] = {}
        rows: Dict[Tuple[int, object], str] = {}
        for position, entry in enumerate(self.subgoals):
            for key in (entry.name, entry.index):
                try:
                    positions.setdefault(key, position)
                except TypeError:
                    pass
            for pattern, fragment_id in entry.rows:
                rows.setdefault((position, pattern.key), fragment_id)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_rows", rows)

    def _position(self, key) -> int:
        try:
            return self._positions[key]
        except (KeyError, TypeError):
            raise UnknownSubgoalError(
                "sub-goal %r not in repository" % (key,)
            ) from None

    def subgoal(self, key) -> SubgoalEntry:
        return self.subgoals[self._position(key)]


@dataclass(slots=True)
class ThrowResult:
    fragment: Optional[ProcessFragment]


def throw_activity(repo: FragmentRepository, subgoal, key) -> ThrowResult:
    """Select the fragment stored for ``(subgoal, key)``, if any: that of
    the sub-goal's first row whose pattern matches the value whose
    ``CompositeValue.key`` is ``key``, found by one lookup. No match
    yields a NULL fragment."""
    fragment_id = repo._rows.get((repo._position(subgoal), key))
    return ThrowResult(None if fragment_id is None else repo.fragments[fragment_id])
