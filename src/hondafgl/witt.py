"""Witt symmetric polynomials in two variables and their mod-p reductions.

The family w_0, w_1, ... is defined over the integers by

    x^(p^n) + y^(p^n) = sum_{j<=n} p^j * w_j(x, y)^(p^(n-j))   for every n,

with w_0 = x + y.  Each w_j is symmetric, homogeneous of total degree p^j,
and vanishes on both axes for j > 0.  The family is built by solving the
defining identity for one w_n at a time; the division by p^n is certified
exact coefficientwise, and the construction re-checks the identity for every
n it claims, so a WittFamily is its own certificate.

Because each w_j is homogeneous, its powers w_j^(p^(n-j)) are taken by
Kronecker substitution (Harvey, J. Symbolic Comput. 2009): one big-int power
of w_j(2^B, 1), read back as signed base-2^B digits, with B wide enough for
the bound |coefficient| <= ||w_j||_1^k.  The digits are exact, so the powers
are the ones repeated products give, and the certificate keeps its meaning:
the solve still divides coefficient by coefficient and refuses an inexact
division, and `verify` recomputes every power before it compares the sides.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalConsistencyError, ParameterError, guard, shown
from .ring import INTEGERS, SparsePoly, _is_prime, prime_field

VARS = ("x", "y")

DEFAULT_MAX_DEGREE = 10**6


def _power_sum(p: int, n: int) -> SparsePoly:
    """x^(p^n) + y^(p^n) over Z."""
    d = p**n
    return SparsePoly(VARS, INTEGERS, {(d, 0): 1, (0, d): 1})


def _power(w: SparsePoly, k: int) -> SparsePoly:
    """w^k for w homogeneous in (x, y) over Z, by Kronecker substitution (see
    above); 2^(B-1) added to each digit makes it an unsigned slice of bits."""
    if k == 1:
        return w
    d = sum(next(iter(w.terms))) * k
    width = (sum(map(abs, w.terms.values())) ** k).bit_length() + 1
    half = 1 << width - 1
    packed = sum(c << width * i for (i, _), c in w.terms.items()) ** k
    bits = format(packed + int(("1" + "0" * (width - 1)) * (d + 1), 2), "b").zfill(width * (d + 1))
    terms = {(d - j, j): int(bits[width * j : width * (j + 1)], 2) - half for j in range(d + 1)}
    return SparsePoly._trusted(VARS, INTEGERS, terms)


class WittFamily(NamedTuple):
    """w_0 .. w_jmax over Z for one prime, identity-checked at construction."""

    p: int
    polys: tuple[SparsePoly, ...]

    @property
    def jmax(self) -> int:
        return len(self.polys) - 1

    def identity_sides(self, n: int) -> tuple[SparsePoly, SparsePoly]:
        """Both sides of the defining identity at level n, computed exactly."""
        rhs = SparsePoly.zero(VARS, INTEGERS)
        for j in range(n + 1):
            rhs = rhs + _power(self.polys[j], self.p ** (n - j)).scale(self.p**j)
        return _power_sum(self.p, n), rhs

    def verify(self) -> None:
        """Re-check the defining identity for every n <= jmax."""
        for n in range(self.jmax + 1):
            lhs, rhs = self.identity_sides(n)
            if lhs != rhs:
                raise InternalConsistencyError(f"Witt identity fails at p={self.p}, n={n}")


def witt_family(p: int, jmax: int) -> WittFamily:
    """Solve the defining identity for w_0 .. w_jmax over the integers.

    w_n = (x^(p^n) + y^(p^n) - sum_{j<n} p^j w_j^(p^(n-j))) / p^n, with the
    division certified exact.  The resource guard refuses p^jmax beyond
    DEFAULT_MAX_DEGREE, naming it as a power when it has more than 30 digits.
    """
    if not _is_prime(p):
        raise ParameterError(f"p must be prime, got {shown(p)}")
    if jmax < 0:
        raise ParameterError(f"jmax must be >= 0, got {shown(jmax)}")
    guard((p, jmax), DEFAULT_MAX_DEGREE, f"the degree p^jmax of w_{shown(jmax)}")
    polys = [SparsePoly(VARS, INTEGERS, {(1, 0): 1, (0, 1): 1})]
    for n in range(1, jmax + 1):
        residual = _power_sum(p, n)
        for j in range(n):
            residual = residual - _power(polys[j], p ** (n - j)).scale(p**j)
        divisor = p**n
        terms = {}
        for e, c in residual.terms.items():
            if c % divisor:
                raise InternalConsistencyError(
                    f"coefficient {c} of {e} in w_{n} numerator not divisible by {divisor}"
                )
            terms[e] = c // divisor
        polys.append(SparsePoly(VARS, INTEGERS, terms))
    family = WittFamily(p, tuple(polys))
    family.verify()
    return family


def witt_mod_p(family: WittFamily) -> list[SparsePoly]:
    """Coefficientwise reductions w_j mod p, over F_p."""
    fp = prime_field(family.p)
    return [w.map_domain(fp) for w in family.polys]
