"""Ground-truth Honda formal group law over the exact rationals.

Independent of the Witt-recursion engine: the height-s Honda formal group
law has logarithm l(x) = sum_{i>=0} x^(p^(s*i)) / p^i over Q, and

    F(x, y) = exp(l(x) + l(y)),    exp = compositional inverse of l,

computed here modulo a *total* degree bound D with exact rational
coefficients, by integer arithmetic: under x = p*t the logarithm becomes
L(t) = l(pt)/p = sum_i p^(q^i - i - 1) t^(q^i) with q = p^s, integral and
monic, so its inverse E is in Z[[t]] and F(x, y) = p*G(x/p, y/p) with
G = E(L(u) + L(v)) in Z[[u, v]]: [x^i y^j] F = G_ij / p^(i+j-1), and the two
truncations at total degree D agree.  G is composed by the binomial theorem,
with univariate powers only: (L(u) + L(v))^k = sum_j C(k, j) L(u)^j L(v)^(k-j),
so with e_k = [t^k] E,

    G(u, v) = sum_j L(u)^j R_j(v),    R_j = sum_l e_(j+l) C(j+l, j) L^l.

Cutting every series below t^D and G to a + b < D is exact: L = t + O(t^2),
so L^j starts at t^j and nothing cut reaches a + b < D.  p-integrality of F
(no denominator divisible by p) is checked before reducing mod p, so the
mod-p image is exact.  Total-degree truncation (rather than y-only) is what
makes a three-variable associativity check symmetric and finite.

Everything the recursion engine produces is validated against this oracle on
the overlap region {x^i y^j : i + j < D, j < q^n}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .engine import DEFAULT_MAX_Y_CAP, FglParams, TruncatedFgl, law_p_series
from .errors import InternalConsistencyError, ParameterError, StructuralError, guard, shown
from .ring import INTEGERS, RATIONALS, SparsePoly, TruncationPolicy, _grlex_sorted

VARS = ("x", "y")


def honda_log(params: FglParams, degree: int) -> SparsePoly:
    """The logarithm sum_{i>=0, p^(s*i) < degree} x^(p^(s*i)) / p^i, over Q."""
    _check_degree(degree)
    guard((params.p, params.s), DEFAULT_MAX_Y_CAP, "the exponent p^s of the Honda logarithm")
    terms = {}
    i = 0
    while params.p ** (params.s * i) < degree:
        terms[(params.p ** (params.s * i),)] = Fraction(1, params.p**i)
        i += 1
    return SparsePoly(("x",), RATIONALS, terms)


def revert_series(f: SparsePoly, degree: int) -> SparsePoly:
    """Compositional inverse g of f modulo x^degree, over Z or Q, with no products.

    Requires f = x + sum_k c_k x^k.  Write g = x*u; each w = u^k obeys Miller's
    power recurrence n*w_n = sum_{j=1..n} ((k+1)j - n) u_j w_(n-j) (Knuth,
    TAOCP vol. 2, 4.7), and f(g) = x gives g_d = -sum_k c_k [x^(d-k)] u^k, which
    needs u only below x^(d-1): each degree is solved online.  Over Z the
    division by n must be exact; a remainder is an InternalConsistencyError.
    """
    _check_degree(degree)
    if f.variables != ("x",) or f.domain not in (INTEGERS, RATIONALS):
        raise StructuralError("reversion expects a univariate series over Z or Q in x")
    if f.coefficient((0,)) != 0 or f.coefficient((1,)) != 1:
        raise StructuralError(f"reversion needs f = x + O(x^2), got {f}")
    zero = f.domain.normalize(0)
    c = {k: ck for (k,), ck in f.terms.items() if 1 < k < degree}
    u, w = [1], {k: [1] for k in c}  # u[n] = [x^(n+1)] g; w[k][n] = [x^n] u^k
    for d in range(2, degree):
        for k in (k for k in c if k < d):
            n = d - k
            total = sum((((k + 1) * j - n) * u[j] * w[k][n - j] for j in range(1, n + 1)), zero)
            w[k].append(total / n if f.domain == RATIONALS else total // n)
            if w[k][n] * n != total:
                raise InternalConsistencyError(f"[x^{n}] u^{k} = {total}/{n} is not integral")
        u.append(-sum((ck * w[k][d - k] for k, ck in c.items() if k <= d), zero))
    return SparsePoly(("x",), f.domain, {(n + 1,): un for n, un in enumerate(u)})


class OracleFgl(NamedTuple):
    """F over Q modulo total degree `degree`, plus its mod-p image."""

    params: FglParams
    degree: int
    poly_rational: SparsePoly
    poly_mod_p: SparsePoly


def oracle_fgl(params: FglParams, degree: int) -> OracleFgl:
    """exp(l(x) + l(y)) = p*G(x/p, y/p) modulo total degree, with the p-integrality check.

    G_ab = sum_j [t^a] L^j * [t^b] R_j over a + b < D, from the powers L^j
    (j < D) alone.  The cut is exact: L^j starts at t^j, so the k-th term of
    E(L(u) + L(v)) and the t^c term of any L^j or R_j reach only total
    degree >= k and >= c.

    An IntegralityError out of the mod-p reduction would falsify the whole
    construction and is deliberately not caught here.  The resource guard
    refuses a degree D beyond DEFAULT_MAX_Y_CAP: D bounds the same bivariate
    exponents the y-cap does.
    """
    _check_degree(degree)
    guard(degree, DEFAULT_MAX_Y_CAP, "the total degree D of the oracle")
    trunc = TruncationPolicy(degree)
    p = params.p
    log = {e: c * p ** (e[0] - 1) for e, c in honda_log(params, degree).terms.items()}
    log = SparsePoly(("x",), INTEGERS, log)  # L(t) = l(pt)/p
    exp = revert_series(log, degree)
    power = log._powers(trunc)
    powers = [power(j).terms for j in range(degree)]  # L^j mod t^D
    g: dict = {}
    for j, lj in enumerate(powers):
        r: dict = {}  # R_j = sum_l e_(j+l) C(j+l, j) L^l, below t^(D-j)
        for (k,), ek in exp.terms.items():
            c = ek * comb(k, j) if k >= j else 0
            for (b,), cb in powers[k - j].items() if c else ():
                if b < degree - j:
                    r[b] = r.get(b, 0) + c * cb
        for (a,), ca in lj.items():
            for b, rb in r.items():
                if a + b < degree:
                    g[a, b] = g.get((a, b), 0) + ca * rb
    poly_rational = SparsePoly(VARS, RATIONALS, {e: Fraction(c, p ** (sum(e) - 1)) for e, c in g.items()})
    poly_mod_p = poly_rational.map_domain(params.fp)
    return OracleFgl(params, degree, poly_rational, poly_mod_p)


def oracle_p_series(oracle: OracleFgl, k: int = 1) -> SparsePoly:
    """[p^k](x) from the oracle's mod-p law, mod x^degree."""
    return law_p_series(oracle.poly_mod_p, k, oracle.degree)


class CompareReport(NamedTuple):
    """Termwise engine-vs-oracle comparison on the overlap region."""

    params: FglParams
    level: int
    degree: int
    mismatches: tuple[tuple[int, int, int, int], ...]  # (i, j, engine c, oracle c)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        region = f"i+j < {self.degree}, j < q^{self.level}"
        if self.ok:
            return f"engine and oracle agree on every monomial with {region}"
        lines = [
            f"{len(self.mismatches)} mismatching monomials on {region}"
            " (first suspect: differing v_s = 1 normalization conventions):"
        ]
        for i, j, ec, oc in self.mismatches:
            lines.append(f"  x^{i}*y^{j}: engine {ec} vs oracle {oc}")
        return "\n".join(lines)


def compare(engine_fgl: TruncatedFgl, oracle: OracleFgl) -> CompareReport:
    """Exact termwise equality on {i + j < D, j < q^n}; lists all mismatches."""
    if engine_fgl.params != oracle.params:
        raise StructuralError(
            f"parameter mismatch: engine {engine_fgl.params} vs oracle {oracle.params}"
        )
    y_cap = engine_fgl.y_cap
    d = oracle.degree
    keys = set(engine_fgl.poly.terms) | set(oracle.poly_mod_p.terms)
    mismatches = []
    for (i, j) in _grlex_sorted(keys):
        if i + j >= d or j >= y_cap:
            continue
        ec = engine_fgl.poly.coefficient((i, j))
        oc = oracle.poly_mod_p.coefficient((i, j))
        if ec != oc:
            mismatches.append((i, j, ec, oc))
    return CompareReport(engine_fgl.params, engine_fgl.level, d, tuple(mismatches))


def default_compare_degree(params: FglParams, level: int) -> int:
    """Comparison degree making the overlap region nonvacuous: max(p^s + 1, q^level).

    p^s is guarded before it is computed; `build_tower` guards q^level.
    """
    guard((params.p, params.s), DEFAULT_MAX_Y_CAP, "the total degree D of the oracle exceeds p^s, which")
    return max(params.p**params.s + 1, params.q**level)


class AssociativityReport(NamedTuple):
    params: FglParams
    degree: int
    mismatches: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_associativity(oracle: OracleFgl) -> AssociativityReport:
    """F(F(x,y),z) = F(x,F(y,z)) termwise over F_p, modulo total degree."""
    f = oracle.poly_mod_p
    trunc = TruncationPolicy(oracle.degree)
    vars3 = ("x", "y", "z")
    fp = oracle.params.fp
    x = SparsePoly.variable(vars3, fp, "x")
    y = SparsePoly.variable(vars3, fp, "y")
    z = SparsePoly.variable(vars3, fp, "z")
    f_xy = f.substitute({"x": x, "y": y}, trunc)
    f_yz = f.substitute({"x": y, "y": z}, trunc)
    lhs = f.substitute({"x": f_xy, "y": z}, trunc)
    rhs = f.substitute({"x": x, "y": f_yz}, trunc)
    diff = lhs - rhs
    mismatches = tuple(e for e, _ in diff.sorted_terms())
    return AssociativityReport(oracle.params, oracle.degree, mismatches)


def _check_degree(degree: int):
    if degree < 2:
        raise ParameterError(f"degree bound must be >= 2, got {shown(degree)}")
