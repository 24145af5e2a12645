"""Exception hierarchy shared by all ctxflow modules.

The CLI tells errors apart by class. A ``LoadError`` is a validation
failure, each command reports the runtime errors it expects in a line of
its own, and ``cli.main`` reports any other as ``error (<class>): <message>``.
"""


class CtxflowError(Exception):
    """Base class for all engine errors."""


class LoadError(CtxflowError):
    """A document failed to parse or carried an unsupported version, or an
    output file could not be written."""


class UnknownContextError(CtxflowError):
    """A context state references parameters or attributes the graph does not declare."""


class UnobservedAttributeError(CtxflowError):
    """A direct attribute was activated but no observation supplied a value."""


class DependencyCycleError(CtxflowError):
    """Dependency-rule evaluation failed to reach a fixpoint within the cap."""


class DependencyConflictError(CtxflowError):
    """Two rules wrote different values to one attribute in a single pass."""


class IncompleteBindingError(CtxflowError):
    """A composition expression references an attribute with no bound value."""


class QueryParseError(CtxflowError):
    """Query text could not be parsed."""

    def __init__(self, message, position):
        super().__init__(message)
        self.position = position


class IncompatibleOperandsError(CtxflowError):
    """Arithmetic over predicates with non-numeric or mismatched operands."""


class UnknownSubgoalError(CtxflowError):
    """throw_activity was asked for a sub-goal missing from the repository."""


class UnknownActivityError(CtxflowError):
    """A chain operation targeted an activity id not present in the chain."""


class EmptyChainError(CtxflowError):
    """An operation would leave the chain without any activity."""


class InvalidWindowError(CtxflowError):
    """reorder was given a window that is not contiguous in the chain."""


class ChainIntegrityError(CtxflowError):
    """The chain order and its activities disagree (internal safety net)."""


class NotEnabledError(CtxflowError):
    """fire() was called on a transition not enabled at the marking."""


class PartialSpaceError(CtxflowError):
    """A property check requiring an exact state space got a partial one."""
