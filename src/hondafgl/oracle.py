"""Ground-truth Honda formal group law, computed in Z.

Independent of the Witt-recursion engine: the height-s Honda formal group
law has logarithm l(x) = sum_{i>=0} x^(p^(s*i)) / p^i over Q, and

    F(x, y) = exp(l(x) + l(y)),    exp = compositional inverse of l,

computed here modulo a *total* degree bound D, in Z throughout: under
x = p*t the logarithm becomes L(t) = l(pt)/p = sum_i p^(q^i - i - 1) t^(q^i)
with q = p^s, integral and monic.  The oracle starts from L; its inverse E,
solved from the powers of L, is in Z[[t]] and F(x, y) = p*G(x/p, y/p) with
G = E(L(u) + L(v)) in Z[[u, v]]: [x^i y^j] F = G_ij / p^(i+j-1), and the two
truncations at total degree D agree.  G is composed by the binomial theorem,
with univariate powers only: (L(u) + L(v))^k = sum_j C(k, j) L(u)^j L(v)^(k-j),
so with e_k = [t^k] E,

    G(u, v) = sum_j L(u)^j R_j(v),    R_j = sum_l e_(j+l) C(j+l, j) L^l.

Cutting every series below t^D and G to a + b < D is exact: L = t + O(t^2),
so L^j starts at t^j and nothing cut reaches a + b < D.  F is p-integral
(Hazewinkel's functional-equation lemma), so each division by p^(i+j-1) is
exact in Z; each is checked, and F mod p reduces those integers.
Total-degree truncation (rather than y-only) is what makes a three-variable
associativity check symmetric and finite.

Everything the recursion engine produces is validated against this oracle on
the overlap region {x^i y^j : i + j < D, j < q^n}.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .engine import DEFAULT_MAX_Y_CAP, FglParams, TruncatedFgl, law_p_series
from .errors import IntegralityError, StructuralError, guard, require_int
from .ring import INTEGERS, SparsePoly, TruncationPolicy
from .witt import VARS


def revert_series(f: SparsePoly, degree: int) -> SparsePoly:
    """Compositional inverse of f = x + O(x^2) over Z modulo x^degree: `_revert`
    over the powers of f, which the ring forms."""
    _check_degree(degree)
    if f.variables != ("x",) or f.domain != INTEGERS:
        raise StructuralError("reversion expects a univariate series over Z in x")
    if f.coefficient((0,)) != 0 or f.coefficient((1,)) != 1:
        raise StructuralError(f"reversion needs f = x + O(x^2), got {f}")
    return _revert(f._power_terms(TruncationPolicy(degree), degree), degree)


def _revert(powers: list, degree: int) -> SparsePoly:
    """The inverse g of f = x + O(x^2) modulo x^degree, from the term maps of
    f^0 .. f^(degree-1).  g(f) = sum_k g_k f^k = x and f^k = x^k + O(x^(k+1))
    solve g degree by degree: g_1 = 1, g_d = -sum_(1<=k<d) g_k [x^d] f^k,
    exact in Z with no division."""
    g = {1: 1}
    for d in range(2, degree):
        g[d] = -sum(gk * powers[k].get((d,), 0) for k, gk in g.items())
    return SparsePoly._trusted(("x",), INTEGERS, {(k,): gk for k, gk in g.items()})


class OracleFgl(NamedTuple):
    """F modulo total degree `degree`, over Z and mod p."""

    params: FglParams
    degree: int
    poly: SparsePoly
    poly_mod_p: SparsePoly


def oracle_fgl(params: FglParams, degree: int) -> OracleFgl:
    """exp(l(x) + l(y)) = p*G(x/p, y/p) modulo total degree, certified p-integral.

    G_ab = sum_j [t^a] L^j * [t^b] R_j over a + b < D, from the powers L^j
    (j < D) alone.  The cut is exact: L^j starts at t^j, so the k-th term of
    E(L(u) + L(v)) and the t^c term of any L^j or R_j reach only total
    degree >= k and >= c.

    F is p-integral, so [x^a y^b] F = G_ab / p^(a+b-1) is an exact division in
    Z.  A remainder, an IntegralityError naming the monomial, would falsify
    the whole construction; nothing here catches it.  The resource guard
    refuses a degree D beyond DEFAULT_MAX_Y_CAP: D bounds the same bivariate
    exponents the y-cap does, and p^s is guarded before it is computed.
    """
    _check_degree(degree)
    p = params.p
    guard((p, params.s), DEFAULT_MAX_Y_CAP, "the exponent p^s of the Honda logarithm")
    trunc = TruncationPolicy(degree)
    q = p**params.s  # q >= 2, so q^i < D needs i < log2(D)
    log = {(q**i,): p ** (q**i - i - 1) for i in range(degree.bit_length()) if q**i < degree}
    log = SparsePoly(("x",), INTEGERS, log)  # L(t) = l(pt)/p = sum_i p^(q^i - i - 1) t^(q^i)
    powers = log._power_terms(trunc, degree)  # L^j mod t^D
    exp = _revert(powers, degree)
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
    for e, c in g.items():
        g[e], r = divmod(c, p ** (sum(e) - 1))
        if r:
            raise IntegralityError(f"coefficient {c}/{p ** (sum(e) - 1)} of monomial {e} of F is not an integer")
    poly = SparsePoly._trusted(VARS, INTEGERS, g)
    return OracleFgl(params, degree, poly, poly.map_domain(params.fp))


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
    engine_terms, oracle_terms = engine_fgl.poly.terms, oracle.poly_mod_p.terms
    mismatches = [
        (i, j, ec, oc)
        for i, j in engine_terms.keys() | oracle_terms.keys()
        if i + j < d and j < y_cap and (ec := engine_terms.get((i, j), 0)) != (oc := oracle_terms.get((i, j), 0))
    ]
    mismatches.sort(key=lambda m: (m[0] + m[1], -m[0]))  # graded-lex: by total degree, then higher x first
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
    require_int("degree bound", degree, 2)
    guard(degree, DEFAULT_MAX_Y_CAP, "the total degree D of the oracle")
