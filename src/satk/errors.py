"""Exception types shared across the toolkit, and the number checks that raise InvalidInput."""

import numbers


class InvalidInput(ValueError):
    """Input violates a documented precondition (shape, finiteness, ranges)."""


class NumericalFailure(RuntimeError):
    """An underlying numerical routine (eigensolver, QR) did not converge."""


class IllConditioned(RuntimeError):
    """A computation is too ill-conditioned to trust.

    Carries the offending residual or condition number in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ParseError(ValueError):
    """A matrix file could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UsageError(ValueError):
    """Bad command-line usage (unknown command, missing argument)."""


def positive_int(value, name: str = "n") -> int:
    """``value`` as an int; InvalidInput unless it is a number, not a bool, and a whole one >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 1 or value % 1:
        raise InvalidInput(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def real_number(value, name: str) -> float:
    """``value`` as a float; InvalidInput unless it is a number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    return float(value)
