"""Ground-truth Honda formal group law over the exact rationals.

Independent of the Witt-recursion engine: the height-s Honda formal group
law has logarithm l(x) = sum_{i>=0} x^(p^(s*i)) / p^i over Q, and

    F(x, y) = exp(l(x) + l(y)),    exp = compositional inverse of l,

computed here modulo a *total* degree bound D with exact rational
coefficients.  p-integrality of F (no denominator divisible by p) is checked
before reducing mod p, so the mod-p image is exact.  Total-degree truncation
(rather than y-only) is what makes a three-variable associativity check
symmetric and finite.

Everything the recursion engine produces is validated against this oracle on
the overlap region {x^i y^j : i + j < D, j < q^n}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import FglParams, TruncatedFgl, law_p_series
from .errors import ParameterError, StructuralError
from .ring import RATIONALS, SparsePoly, TruncationPolicy, _grlex_key

VARS = ("x", "y")


def honda_log(params: FglParams, degree: int) -> SparsePoly:
    """The logarithm sum_{i>=0, p^(s*i) < degree} x^(p^(s*i)) / p^i, over Q."""
    _check_degree(degree)
    terms = {}
    i = 0
    while params.p ** (params.s * i) < degree:
        terms[(params.p ** (params.s * i),)] = f"1/{params.p ** i}"
        i += 1
    return SparsePoly(("x",), RATIONALS, terms)


def revert_series(f: SparsePoly, degree: int) -> SparsePoly:
    """Compositional inverse g of f modulo x^degree, one coefficient at a time.

    Requires f = x + higher-order terms.  Maintains f(g) = x mod x^(d+1) as d
    grows: the identity fails first in degree d by exactly the coefficient
    [x^d] f(g), which the next correction -[x^d] f(g) * x^d cancels.
    """
    _check_degree(degree)
    if f.variables != ("x",) or f.domain != RATIONALS:
        raise StructuralError("reversion expects a univariate series over Q in x")
    if f.coefficient((0,)) != 0 or f.coefficient((1,)) != 1:
        raise StructuralError(f"reversion needs f = x + O(x^2), got {f}")
    x = SparsePoly.variable(("x",), RATIONALS, "x")
    g = x
    for d in range(2, degree):
        trunc = TruncationPolicy(caps={"x": d + 1})
        err = f.substitute({"x": g}, trunc).coefficient((d,))
        if err:
            g = g - SparsePoly(("x",), RATIONALS, {(d,): err})
    return g


@dataclass(frozen=True)
class OracleFgl:
    """F over Q modulo total degree `degree`, plus its mod-p image."""

    params: FglParams
    degree: int
    poly_rational: SparsePoly
    poly_mod_p: SparsePoly


def oracle_fgl(params: FglParams, degree: int) -> OracleFgl:
    """exp(log x + log y) modulo total degree, with the p-integrality check.

    An IntegralityError out of the mod-p reduction would falsify the whole
    construction and is deliberately not caught here.
    """
    _check_degree(degree)
    trunc = TruncationPolicy(total=degree)
    log = honda_log(params, degree)
    exp = revert_series(log, degree)
    x = SparsePoly.variable(VARS, RATIONALS, "x")
    y = SparsePoly.variable(VARS, RATIONALS, "y")
    log_sum = log.substitute({"x": x}, trunc) + log.substitute({"x": y}, trunc)
    poly_rational = exp.substitute({"x": log_sum}, trunc)
    poly_mod_p = poly_rational.map_domain(params.fp)
    return OracleFgl(params, degree, poly_rational, poly_mod_p)


def oracle_p_series(oracle: OracleFgl, k: int = 1) -> SparsePoly:
    """[p^k](x) from the oracle's mod-p law, mod x^degree."""
    return law_p_series(oracle.poly_mod_p, k, oracle.degree)


@dataclass(frozen=True)
class CompareReport:
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
    for (i, j) in sorted(keys, key=_grlex_key):
        if i + j >= d or j >= y_cap:
            continue
        ec = engine_fgl.poly.coefficient((i, j))
        oc = oracle.poly_mod_p.coefficient((i, j))
        if ec != oc:
            mismatches.append((i, j, ec, oc))
    return CompareReport(engine_fgl.params, engine_fgl.level, d, tuple(mismatches))


def default_compare_degree(params: FglParams, level: int) -> int:
    """Comparison degree making the overlap region nonvacuous: max(p^s + 1, q^level)."""
    return max(params.p**params.s + 1, params.q**level)


@dataclass(frozen=True)
class AssociativityReport:
    params: FglParams
    degree: int
    mismatches: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_associativity(oracle: OracleFgl) -> AssociativityReport:
    """F(F(x,y),z) = F(x,F(y,z)) termwise over F_p, modulo total degree."""
    f = oracle.poly_mod_p
    trunc = TruncationPolicy(total=oracle.degree)
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
        raise ParameterError(f"degree bound must be >= 2, got {degree}")
