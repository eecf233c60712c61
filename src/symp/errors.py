"""Shared exception types: one leaf class per ``symp`` exit code.

    ParseError            exit 2  malformed text input or flag value
    PreconditionViolated  exit 2  an operation's stated precondition fails
    OutOfRange            exit 3  a moment outside the proven range 4n+1
    BudgetExceeded        exit 4  an enumeration, grid or table over its cap

``cli.main`` catches each class, so no deliberate error leaves ``symp`` as
a traceback.  ParseError and PreconditionViolated are also ValueErrors.
The integer checks on arguments live here too, beside the error they
raise, so that ``partitions`` can use them without importing ``moments``.
"""

from operator import index


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


def integer(value, name: str) -> int:
    """``value`` as an int (``operator.index``); PreconditionViolated naming
    ``name`` unless it is an integer.  ``bool`` is refused although it
    subclasses int (numpy's ``bool_`` has no ``__index__``), so ``True``
    never passes as 1."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise PreconditionViolated(f"{name} = {value!r} is not an integer")


def nonnegative_int(value, name: str) -> int:
    """``value`` as an int; PreconditionViolated naming ``name`` unless it
    is a non-negative integer."""
    result = integer(value, name)
    if result < 0:
        raise PreconditionViolated(f"{name} = {result} is negative")
    return result


def positive_int(value, name: str) -> int:
    """``value`` as an int; PreconditionViolated naming ``name`` unless it
    is an integer >= 1."""
    result = integer(value, name)
    if result < 1:
        raise PreconditionViolated(f"{name} = {result} is below 1")
    return result
