"""Exception hierarchy shared by all hondafgl modules, the resource guard, and
how its messages name a number."""

import math
import os
import sys

MAX_TERMS_ENV = "FGL_MAX_TERMS"


class FglError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(FglError):
    """Operands do not fit together: mismatched variable sets, mismatched
    coefficient domains, a substitution that misses a variable, an index out
    of range, or an inconsistent tower."""


class ParameterError(FglError):
    """A user-supplied parameter is invalid (non-prime p, s = 1 where the
    recursion needs s > 1, non-positive level, ...)."""


class IntegralityError(FglError):
    """A coefficient G_ij / p^(i+j-1) of the oracle's law is not an integer,
    so F is not p-integral: that would falsify the oracle's construction, and
    is treated as fatal."""


class InternalConsistencyError(FglError):
    """An identity the implementation relies on failed at runtime: an inexact
    division while solving for a Witt polynomial, or a ladder divisibility
    certificate that does not hold.  Must never fire on correct code."""


class GradingError(FglError):
    """A nonzero term violates the homogeneity forced by the grading of the
    coefficient ring."""


class ResourceLimitError(FglError):
    """The resource guard tripped before a computation that would exceed
    desk scale.  `projected` carries the projected cost, or None where that
    is a power too long to print."""

    def __init__(self, message: str, projected: int | None = None):
        super().__init__(message)
        self.projected = projected


def guard(projected: int | tuple[int, int], default: int, what: str) -> None:
    """Refuse work whose projected size exceeds the limit.

    The limit is `default` unless the FGL_MAX_TERMS environment variable is
    set; it is read at every call, and a value that is not an integer is a
    ParameterError, whose message names a long value by its start and length.
    A projection of 0, nothing to build, passes any limit.
    A projection given as a power (b, k) is computed only if it can be
    printed, and one too long to print exceeds any limit.  `what` names the
    projected quantity in the message.
    """
    raw = os.environ.get(MAX_TERMS_ENV)
    try:
        bound = default if raw is None else int(raw)
    except ValueError:
        got = repr(raw) if len(raw) <= 40 else f"{raw[:20]!r}... ({len(raw)} characters)"
        raise ParameterError(f"{MAX_TERMS_ENV} must be an integer, got {got}") from None
    power = projected if isinstance(projected, tuple) else None
    if power:
        projected = None if too_long_to_print(*power) else power[0] ** power[1]
    if projected is None or (projected and projected > bound):
        message = f"{what} is {shown(projected, power)}, beyond the limit {shown(bound)}"
        raise ResourceLimitError(message, projected=projected)


def _is_int(n) -> bool:
    """An int that is not a bool: True would pass as 1 and print as True."""
    return isinstance(n, int) and not isinstance(n, bool)


def require_int(name: str, n, low: int) -> None:
    """Refuse n, as a ParameterError, unless it is an int (not a bool) >= low."""
    if not _is_int(n) or n < low:
        kind = "" if _is_int(n) else "an int "
        raise ParameterError(f"{name} must be {kind}>= {low}, got {shown(n)}")


def shown(n, power: tuple[int, int] | None = None) -> str:
    """How a message names a number: as its repr up to 30 digits, past that
    as the power (b, k) that gave it, if any, else by its digit count; None,
    with no power, as 'None'."""
    if n is None and not power:
        return "None"
    if n is not None and (not isinstance(n, int) or abs(n) < 10**30):
        return repr(n)
    if power:
        return f"{power[0]}^{shown(power[1])}"
    m = abs(n)
    digits = int(math.log10(m)) + 1
    digits += (m >= 10**digits) - (m < 10 ** (digits - 1))
    return f"a {'negative ' if n < 0 else ''}number of {digits} digits"


def too_long_to_print(p: int, k: int) -> bool:
    """Whether p^k (p >= 2) has more decimal digits than int-to-str converts.

    Decided from k*log10(p), exactly only within a digit of the limit; such a
    power also exceeds any limit `int` can parse from FGL_MAX_TERMS.
    """
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    low, high = ((digits + d) / math.log10(p) for d in (-1, 1))
    return bool(digits) and k > low and (k > high or p**k >= 10**digits)
