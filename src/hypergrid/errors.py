"""Exception types shared across the package."""


class HypergridError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HypergridError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class GridMismatchError(DomainError):
    """Two grid-bound values from different grids were combined."""


class NotDifferentiableError(DomainError):
    """The difference-quotient function was refuted as continuous at the
    working context; ``witness`` is the continuity report's witness text,
    naming the adjacent pair of grid points across which it jumps."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EvaluationError(HypergridError):
    """A compiled expression failed at a concrete grid point (for example
    a logarithm of a non-positive value); ``point`` is where it happened,
    and ``reason`` is the message without it."""

    def __init__(self, message, point=None):
        self.reason = message
        if point is not None:
            message = f"{message} at grid point {point.value}"
        super().__init__(message)
        self.point = point


class SearchRangeError(HypergridError):
    """A bounded search (for instance the logarithm's bracket search)
    exhausted its admissible range."""


class ResourceLimitError(HypergridError):
    """The requested computation exceeds a configured resource guard."""


class ParseError(HypergridError, ValueError):
    """Syntax error in the expression language; ``position`` is the
    1-based column of the offending token."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (column {position})"
        super().__init__(message)
        self.position = position
