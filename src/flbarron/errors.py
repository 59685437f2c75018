"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps ToolkitError subclasses to exit code 3.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidArgumentError(ToolkitError, ValueError):
    """Argument outside the documented domain of an operation."""


class DimensionMismatchError(ToolkitError):
    """Grids, values or indices with incompatible dimensions."""


class UnsupportedScaleError(ToolkitError):
    """Dense tensor-grid operation requested above the n*N <= 3 cap."""


class UnsupportedKindError(ToolkitError):
    """Profile or potential kind without the requested capability."""


class DivergentPartError(ToolkitError):
    """A decomposition part has an infinite norm at the requested index."""


class NotInSpaceError(ToolkitError):
    """Every candidate split diverges; the function is not in the space."""


class NoEmbeddingError(ToolkitError):
    """The requested embedding direction does not hold."""


class PoleError(ToolkitError):
    """Gamma-function argument hit a pole."""


class GammaOverflowError(ToolkitError):
    """Gamma-function value too large for a float."""


class DomainError(ToolkitError):
    """Input outside the mathematical domain of a special function."""


class InadmissibleTermError(ToolkitError):
    """A potential term fails the admissibility region at (s, alpha)."""

    def __init__(self, message, term=None):
        super().__init__(message)
        self.term = term


class NoContractionError(ToolkitError):
    """Global contraction factor q >= 1; use the split (projected) mode."""

    def __init__(self, message, q=None):
        super().__init__(message)
        self.q = q


class NonConvergenceError(ToolkitError):
    """Iteration did not reach tolerance within max_iter."""


class SingularSystemError(ToolkitError):
    """The discretized I + R system is numerically singular."""


class ContractionViolationError(ToolkitError):
    """A measured operator norm exceeded its certified bound."""


class NonFiniteError(ToolkitError):
    """A layer produced a NaN or infinite value; the message names the layer."""


class FitDegenerateError(ToolkitError):
    """The grid cannot resolve the window needed for a tail fit."""
