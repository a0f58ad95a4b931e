"""Exception hierarchy shared by all hondafgl modules, and the resource guard."""

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
    """A rational coefficient has a denominator divisible by p, so it has no
    image in the prime field.  For the oracle pipeline this signals a genuine
    p-integrality failure and is treated as fatal."""


class InternalConsistencyError(FglError):
    """An identity the implementation relies on failed at runtime: an inexact
    division while solving for a Witt polynomial, or a ladder divisibility
    certificate that does not hold.  Must never fire on correct code."""


class GradingError(FglError):
    """A nonzero term violates the homogeneity forced by the grading of the
    coefficient ring."""


class VacuityError(FglError):
    """A certificate was requested at a truncation level too shallow to say
    anything; the caller should extend the tower first."""


class ResourceLimitError(FglError):
    """The resource guard tripped before a computation that would exceed
    desk scale.  `projected` carries the projected cost, or None where that
    is a power too long to print."""

    def __init__(self, message: str, projected: int | None = None):
        super().__init__(message)
        self.projected = projected


def guard(projected: int, default: int, what: str) -> None:
    """Refuse work whose projected size exceeds the limit.

    The limit is `default` unless the FGL_MAX_TERMS environment variable is
    set; it is read at every call, and a value that is not an integer is a
    ParameterError.  A projection of 0, nothing to build, passes any limit.
    `what` names the projected quantity in the message.
    """
    bound = limit(default)
    if projected and projected > bound:
        raise ResourceLimitError(f"{what} is {projected}, beyond the limit {bound}", projected=projected)


def limit(default: int) -> int:
    """FGL_MAX_TERMS as an integer if it is set, else `default`."""
    raw = os.environ.get(MAX_TERMS_ENV)
    try:
        return default if raw is None else int(raw)
    except ValueError:
        raise ParameterError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from None


def too_long_to_print(p: int, k: int) -> bool:
    """Whether p^k (p >= 2) has more decimal digits than int-to-str converts.

    Decided without computing p^k when it is far past the limit; such a
    power also exceeds any limit `int` can parse from FGL_MAX_TERMS.
    """
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    return bool(digits) and (k * math.log10(p) > digits + 1 or p**k >= 10**digits)
