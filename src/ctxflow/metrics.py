"""Performance and complexity measures for an extended process model.

Covers the execution-time estimate, extra-activity and extra-control-path
counts relative to a baseline model, control-flow complexity, and the
Halstead-style length/volume/difficulty figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CostParams:
    """Abstract time-unit costs of one context-aware activity execution."""

    n: int  # activity count
    t_a: float = 1.0  # activity execution
    t_p: float = 1.0  # fragment execution
    t_cm: float = 1.0  # context-model evaluation
    t_th: float = 1.0  # fragment selection (throw)
    c_ct: float = 1.0  # context interception constant (catch)

    def __post_init__(self):
        for name in ("n", "t_a", "t_p", "t_cm", "t_th", "c_ct"):
            if getattr(self, name) < 0:
                raise ValueError("cost parameter %r must be >= 0" % (name,))


def execution_time(p: CostParams) -> float:
    """Estimated total execution time: n * (ta + tp + tcm + tth + Cct)."""
    return p.n * (p.t_a + p.t_p + p.t_cm + p.t_th + p.c_ct)


def structural_metrics(model, base_activity_count: int,
                       base_split_branches: int = 0) -> Dict[str, int]:
    """Extra-activity, extra-control-path and CFC figures.

    ``noa_extra`` counts activities beyond the baseline chain (zero in the
    ideal state). ``mcc_extra`` measures the control paths added by the
    contextual-event wiring: n events plus n event-to-activity transfers give
    E' - N' + 2 = 2 regardless of n. ``cfc`` is the base model's
    split-branch count, unchanged by adaptation.
    """
    n = len(model.chain)
    if n < 1:
        raise ValueError("model has no activities")
    noa_extra = max(n - base_activity_count, 0)
    return {
        "n": n,
        "noa_extra": noa_extra,
        "mcc_extra": 2,
        "cfc": base_split_branches,
    }


@dataclass(frozen=True)
class HalsteadCounts:
    """Unique/total counts of flow elements (n1/N1) and data objects (n2/N2)."""

    n1: int
    n2: int
    N1: int
    N2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("unique counts must be >= 1")
        if self.N1 < self.n1 or self.N2 < self.n2:
            raise ValueError("total counts cannot be below unique counts")


def halstead(c: HalsteadCounts) -> Dict[str, float]:
    """Length, volume and difficulty from the Halstead count 4-tuple."""
    return {
        "length": c.n1 * math.log2(c.n1) + c.n2 * math.log2(c.n2),
        "volume": (c.N1 + c.N2) * math.log2(c.n1 + c.n2),
        "difficulty": (c.n1 / 2) * (c.N2 / c.n2),
    }


def extended_counts(base: HalsteadCounts, n: int) -> HalsteadCounts:
    """Counts for the extended model: one new unique construct, used n times.

    The contextual-event construct adds one unique flow element and one
    unique data object; each of the n activities contributes one occurrence
    of both.
    """
    if n < 0:
        raise ValueError("activity count must be >= 0")
    return HalsteadCounts(
        n1=base.n1 + 1,
        n2=base.n2 + 1,
        N1=base.N1 + n,
        N2=base.N2 + n,
    )
