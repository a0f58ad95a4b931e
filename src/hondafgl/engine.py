"""Truncated formal group law of mod-p Morava K-theory at height s > 1.

The formal group law F(x, y) of K(s), with v_s normalized to 1 and
q = p^(s-1), is a polynomial P_n(x, y) over F_p modulo y^(q^n) for every n.
This module computes the tower P_1, P_2, ... by the inductive ladder that
comes out of the Witt-polynomial recursion

    F(x, y) = F(x + y, w_1(x, y)^q, w_2(x, y)^(q^2), ...),

where the many-argument F is the iterated formal sum: with b_j equal to
(w_j mod p)^(q^j) for every j >= 0, so b_0 = w_0 = x + y, it is F(b_0, ..., b_n)
modulo y^(q^(n+1)).  F is associative, so bracketed from the inside it
collapses through already-known levels by one step rule, S_n = b_n and

    S_j = P_{n-j}(b_j, S_{j+1})   for j = n-1 .. 0,   P_{n+1} = S_0,

every product truncated at y-exponent < q^(n+1); as P_1 = x + y, S_{n-1} is
the sum b_{n-1} + S_n.  Since q^j is a power of p, b_j is a Frobenius twist
over F_p: every exponent of w_j mod p times q^j (see `ring`), with no product
formed.  Each step is exact because S_{j+1} is divisible by y^(q^(j+1)), so
the neglected tail S_{j+1}^(q^(n-j)) vanishes modulo y^(q^(n+1)); `extend`
asserts at run time that y^(q^j) divides every S_j, j >= 1, not assuming it.

The y-cap q^n is the engine's resource guard: `build_tower` refuses a tower
whose top y-cap is past the limit before it builds any level, and `extend`
checks each level it adds (see `errors.guard`).

Also here: coefficient extraction F = sum A_l(x) y^l, the degree-bound
verifier (x-degree <= (pq)^m wherever the y-degree is < q^m), p-series
([p] by p - 1 diagonal substitutions, [p^k] by k compositions), and
reconstruction of v_s exponents from homogeneity.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import (
    GradingError,
    InternalConsistencyError,
    ParameterError,
    StructuralError,
    guard,
    shown,
    too_long_to_print,
)
from .ring import SparsePoly, TruncationPolicy, _is_int, _is_prime, prime_field
from .witt import VARS, witt_family, witt_mod_p

DEFAULT_MAX_Y_CAP = 10**4


class FglParams(NamedTuple("FglParams", [("p", int), ("s", int)])):
    """Prime p and height s; q = p^(s-1) is always derived, never stored,
    and refused as the y-cap of level 1 when it is too long to print.

    s = 1 is accepted, for the rational-logarithm oracle; the truncation
    recursion needs s > 1 (q = 1 at s = 1 makes "modulo y^q" say nothing)
    and refuses it where it starts.
    """

    __slots__ = ()

    def __new__(cls, p: int, s: int):
        if not _is_int(p) or not _is_prime(p):
            raise ParameterError(f"p must be prime, got {shown(p)}")
        if not _is_int(s) or s < 1:
            raise ParameterError(f"s must be a positive integer, got {shown(s)}")
        return super().__new__(cls, p, s)

    @property
    def q(self) -> int:
        if too_long_to_print(self.p, self.s - 1):
            guard((self.p, self.s - 1), DEFAULT_MAX_Y_CAP, "the y-cap of level 1")
        return self.p ** (self.s - 1)

    @property
    def fp(self):
        return prime_field(self.p)


class TruncatedFgl(NamedTuple):
    """F(x, y) known exactly modulo y^(q^level), as a polynomial over F_p."""

    params: FglParams
    level: int
    poly: SparsePoly

    @property
    def y_cap(self) -> int:
        return self.params.q**self.level


def initial_fgl(params: FglParams) -> TruncatedFgl:
    """Level 1: F(x, y) = x + y modulo y^q."""
    _require_recursion_height(params)
    poly = SparsePoly(VARS, params.fp, {(1, 0): 1, (0, 1): 1})
    return TruncatedFgl(params, 1, poly)


def extend(tower: Sequence[TruncatedFgl]) -> TruncatedFgl:
    """P_{n+1} = F(b_0, ..., b_n) by the inside-out ladder, one step per j = n .. 0:
    S_n = b_n and the P_1 step are sums, the rest substitutions.  Its one
    certificate, y^(q^j) divides S_j for j >= 1, also certifies b_j."""
    params, n = _validate_tower(tower)
    q = params.q
    new_cap = q ** (n + 1)
    guard(new_cap, DEFAULT_MAX_Y_CAP, f"the y-cap of level {n + 1}")
    trunc = TruncationPolicy(new_cap, "y")
    wbar = witt_mod_p(witt_family(params.p, n))

    inner = SparsePoly.zero(VARS, params.fp)
    for j in range(n, -1, -1):
        bj = wbar[j].pow(q**j, trunc)
        inner = bj + inner if j >= n - 1 else tower[n - j - 1].poly.substitute({"x": bj, "y": inner}, trunc)
        if j and (bad := [e for e in inner.terms if e[1] < q**j]):
            raise InternalConsistencyError(
                f"ladder certificate failed at level {n + 1}: "
                f"S_{j} has monomials {bad} with y-exponent < q^{j} = {q**j}"
            )
    return TruncatedFgl(params, n + 1, inner)


def build_tower(params: FglParams, level: int) -> list[TruncatedFgl]:
    """The tower P_1 .. P_level, each level computed once from the ones below.

    The y-cap guard of every level `extend` would build is checked before any
    is built.  The y-cap grows with the level, so this stops at the first
    level past the limit, however deep the tower asked for; level 1 extends
    nothing, so its projection is 0 and only the limit is parsed.
    """
    if level < 1:
        raise ParameterError(f"level must be >= 1, got {shown(level)}")
    tower = [initial_fgl(params)]
    for m in range(1, level + 1):
        guard((params.p, (params.s - 1) * m) if m > 1 else 0, DEFAULT_MAX_Y_CAP, f"the y-cap of level {m}")
    while len(tower) < level:
        tower.append(extend(tower))
    return tower


def coefficient_table(f: TruncatedFgl) -> dict[int, SparsePoly]:
    """The polynomials A_l(x) with F = sum_l A_l(x) y^l, for 0 <= l < q^n."""
    x_only = ("x",)
    fp = f.params.fp
    rows: dict[int, dict] = {l: {} for l in range(f.y_cap)}
    for (i, j), c in f.poly.terms.items():
        rows[j][(i,)] = c
    return {l: SparsePoly(x_only, fp, rows[l]) for l in range(f.y_cap)}


class DegreeBoundReport(NamedTuple):
    """Outcome of the x-degree bound check, with the observed maxima.

    `windows` maps m to (largest x-exponent seen among terms with y-exponent
    < q^m, allowed bound (pq)^m); how tight the bound is can be read off, but
    tightness is not asserted.
    """

    params: FglParams
    level: int
    violations: tuple[tuple[int, int, int], ...]
    windows: Mapping[int, tuple[int, int]]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_degree_bound(f: TruncatedFgl) -> DegreeBoundReport:
    """Check x-exponent <= (pq)^m for every term with y-exponent < q^m, m <= n."""
    p, q = f.params.p, f.params.q
    violations = []
    windows = {}
    for m in range(1, f.level + 1):
        y_bound = q**m
        x_bound = (p * q) ** m
        seen = 0
        for (i, j) in f.poly.terms:
            if j < y_bound:
                seen = max(seen, i)
                if i > x_bound:
                    violations.append((i, j, m))
        windows[m] = (seen, x_bound)
    return DegreeBoundReport(f.params, f.level, tuple(sorted(violations)), windows)


class PSeries(NamedTuple):
    """[p^k](x) as a polynomial over F_p, meaningful only below x^valid_below."""

    params: FglParams
    k: int
    poly: SparsePoly
    valid_below: int


def p_series(tower: Sequence[TruncatedFgl], k: int) -> PSeries:
    """[p^k](x) from the top of the tower, by `law_p_series`.

    Substituting y = x is only faithful below x^(q^n), so the result carries
    its validity bound; callers must check it to detect a vacuous answer
    (e.g. [p](x) = x^(p^s) says nothing when p^s >= q^n).
    """
    params, n = _validate_tower(tower)
    bound = params.q**n
    return PSeries(params, k, law_p_series(tower[n - 1].poly, k, bound), bound)


def law_p_series(law: SparsePoly, k: int, bound: int) -> SparsePoly:
    """[p^k](x) of a law F(x, y) over F_p, modulo x^bound.

    [p](x) takes p - 1 diagonal substitutions [m+1](x) = F([m](x), x), and
    [p^k] is [p] composed with itself k times, so the cost grows with k, not
    with p^k.  Both steps are exact modulo x^bound whenever F is known
    exactly on the monomials x^i y^j with i + j < bound: every series
    substituted has no constant term.
    """
    _check_k(k)
    trunc = TruncationPolicy(bound, "x")
    x = SparsePoly.variable(("x",), law.domain, "x")
    series = x
    if k:
        times_p = x
        for _ in range(law.domain.p - 1):
            times_p = law.substitute({"x": times_p, "y": x}, trunc)
        for _ in range(k):
            series = times_p.substitute({"x": series}, trunc)
    return series


def vs_regrade(f: TruncatedFgl) -> dict[tuple[int, int], int]:
    """v_s-exponent (i + j - 1)/(p^s - 1) of every term, by homogeneity.

    With deg(v_s) = -2(p^s - 1) and deg(x) = deg(y) = 2, the term
    v_s^e x^i y^j is homogeneous of the degree of F exactly when
    e = (i + j - 1)/(p^s - 1); setting v_s = 1 loses e, and this recovers it.
    """
    d = f.params.p**f.params.s - 1
    out = {}
    for (i, j), _ in f.poly.sorted_terms():
        num = i + j - 1
        if num % d:
            raise GradingError(
                f"term x^{i}*y^{j}: {num} is not divisible by p^s - 1 = {d}"
            )
        out[(i, j)] = num // d
    return out


def _require_recursion_height(params: FglParams):
    if params.s < 2:
        raise ParameterError("s = 1 is not supported here: the truncation recursion requires s > 1")


def _validate_tower(tower: Sequence[TruncatedFgl]) -> tuple[FglParams, int]:
    if not tower:
        raise StructuralError("tower is empty")
    params = tower[0].params
    _require_recursion_height(params)
    for expected, f in enumerate(tower, start=1):
        if f.params != params:
            raise StructuralError(f"tower mixes parameters {params} and {f.params}")
        if f.level != expected:
            raise StructuralError(f"tower levels must run 1..n, found {f.level} at position {expected}")
        if f.poly.variables != VARS:
            raise StructuralError(f"tower polynomials must live in {VARS}")
    return params, len(tower)


def _check_k(k: int):
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {shown(k)}")
