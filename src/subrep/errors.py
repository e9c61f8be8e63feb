"""Shared exception types."""


class SubrepError(Exception):
    """Base class for all toolkit errors."""


class NoSolutionError(SubrepError):
    """A linear system is inconsistent."""


class NotComparableError(SubrepError):
    """Two poset elements are not comparable."""


class UnknownVertexError(SubrepError):
    """A vertex label does not belong to the quiver."""


class NotARetractionError(SubrepError):
    """The supplied morphism pair is not a retraction of a split mono."""


class HasProjectiveSummandError(SubrepError):
    """The translate is undefined on modules with projective summands."""


class BudgetExceededError(SubrepError):
    """An iteration budget was exhausted; indicates a bug or bad input."""


class ClosureStalledError(BudgetExceededError):
    """A catalog closure round changed nothing while some non-projective
    object still has no mesh; every later round would repeat it."""


class ChaseExhaustedError(SubrepError):
    """The projective chase exceeded its step bound; contract violation."""


class NotInvariantError(SubrepError):
    """A subspace is not stable under the nilpotent operator."""

    def __init__(self, which, vector=None):
        self.which = which
        self.vector = vector
        super().__init__(f"subspace v{which} is not operator-invariant")


class NotNestedError(SubrepError):
    """The smallest subspace is not contained in a larger one."""

    def __init__(self, which, vector=None):
        self.which = which
        self.vector = vector
        super().__init__(f"v1 is not contained in v{which}")


class InternalContractViolation(SubrepError):
    """An internal invariant failed; indicates a bug upstream."""


class ParseError(SubrepError):
    """A text input file is malformed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
