"""Shared exception types: one leaf class per ``symp`` exit code.

    ParseError            exit 2  malformed text input or flag value
    PreconditionViolated  exit 2  an operation's stated precondition fails
    OutOfRange            exit 3  a moment outside the proven range 4n+1
    BudgetExceeded        exit 4  an enumeration, grid or table over its cap

``cli.main`` catches each class, so no deliberate error leaves ``symp`` as
a traceback.  ParseError and PreconditionViolated are also ValueErrors.
"""


class SympError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SympError, ValueError):
    """Malformed text input (partition, polynomial or Fourier table)."""


class PreconditionViolated(SympError, ValueError):
    """An operation's stated precondition does not hold."""


class OutOfRange(SympError):
    """A moment was requested outside the proven validity range."""


class BudgetExceeded(SympError):
    """An enumeration, quadrature grid or finite-field table would exceed its cap."""
