"""Exception hierarchy shared by all ctxflow modules.

Every error carries a short machine-readable ``code`` so that CLI output
and validation reports can be matched without parsing prose.
"""


class CtxflowError(Exception):
    """Base class for all engine errors."""

    code = "error"


class LoadError(CtxflowError):
    """A document failed to parse or carried an unsupported version."""

    code = "load-error"


class UnknownContextError(CtxflowError):
    """A context state references parameters or attributes the graph does not declare."""

    code = "unknown-context"


class UnobservedAttributeError(CtxflowError):
    """A direct attribute was activated but no observation supplied a value."""

    code = "unobserved-attribute"


class DependencyCycleError(CtxflowError):
    """Dependency-rule evaluation failed to reach a fixpoint within the cap."""

    code = "dependency-cycle"


class DependencyConflictError(CtxflowError):
    """Two rules wrote different values to one attribute in a single pass."""

    code = "dependency-conflict"


class IncompleteBindingError(CtxflowError):
    """A composition expression references an attribute with no bound value."""

    code = "incomplete-binding"


class QueryParseError(CtxflowError):
    """Query text could not be parsed."""

    code = "query-parse"

    def __init__(self, message, position, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = expected


class IncompatibleOperandsError(CtxflowError):
    """Arithmetic over predicates with non-numeric or mismatched operands."""

    code = "incompatible-operands"


class UnknownSubgoalError(CtxflowError):
    """throw_activity was asked for a sub-goal missing from the repository."""

    code = "unknown-subgoal"


class UnknownActivityError(CtxflowError):
    """A chain operation targeted an activity id not present in the chain."""

    code = "unknown-activity"


class EmptyChainError(CtxflowError):
    """An operation would leave the chain without any activity."""

    code = "empty-chain"


class InvalidWindowError(CtxflowError):
    """reorder was given a window that is not contiguous in the chain."""

    code = "invalid-window"


class ChainIntegrityError(CtxflowError):
    """The chain order and its activities disagree (internal safety net)."""

    code = "chain-integrity"


class NotEnabledError(CtxflowError):
    """fire() was called on a transition not enabled at the marking."""

    code = "not-enabled"


class PartialSpaceError(CtxflowError):
    """A property check requiring an exact state space got a partial one."""

    code = "partial-space"
