"""Executable engine for context-aware business process models.

Folds streams of contextual situations into per-scope context states,
evaluates a three-level context graph with dependency rules, selects process
fragments, rewrites the activity chain through five adaptation strategies,
and verifies the adapted model by exhaustive state-space analysis of a
generated colored-token net.
"""

from .context import (
    AtomicContext,
    ContextState,
    ContextualSituation,
    ScopeFilter,
    catch_context,
)
from .chain import (
    ActivityChain,
    ActivityNode,
    AdaptationRule,
    Action,
    ProcessModel,
    run_instance,
)
from .fragments import FragmentRepository, ProcessFragment, throw_activity
from .graph import ContextGraph, validate_graph

__version__ = "0.1.0"

__all__ = [
    "AtomicContext",
    "ContextualSituation",
    "ContextState",
    "ScopeFilter",
    "catch_context",
    "ActivityChain",
    "ActivityNode",
    "Action",
    "AdaptationRule",
    "ProcessModel",
    "run_instance",
    "FragmentRepository",
    "ProcessFragment",
    "throw_activity",
    "ContextGraph",
    "validate_graph",
    "__version__",
]
