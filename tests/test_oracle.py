import random
from fractions import Fraction

import pytest

from hondafgl.engine import FglParams, TruncatedFgl, build_tower
from hondafgl.errors import InternalConsistencyError, ParameterError, StructuralError
from hondafgl.oracle import (
    check_associativity,
    compare,
    default_compare_degree,
    honda_log,
    oracle_fgl,
    oracle_p_series,
    revert_series,
)
from hondafgl.ring import INTEGERS, RATIONALS, SparsePoly, TruncationPolicy, prime_field

X = ("x",)
XY = ("x", "y")


def qpoly(variables, terms):
    return SparsePoly(variables, RATIONALS, terms)


# ---- logarithm ---------------------------------------------------------------


def test_honda_log_p2_s2():
    assert honda_log(FglParams(2, 2), 5) == qpoly(X, {(1,): 1, (4,): Fraction(1, 2)})
    assert honda_log(FglParams(2, 2), 17) == qpoly(
        X, {(1,): 1, (4,): Fraction(1, 2), (16,): Fraction(1, 4)}
    )


def test_honda_log_truncates_to_x():
    # p^s = 9 >= D leaves only the linear term
    assert honda_log(FglParams(3, 2), 9) == qpoly(X, {(1,): 1})


def test_honda_log_degree_validation():
    with pytest.raises(ParameterError):
        honda_log(FglParams(2, 2), 1)


# ---- reversion ------------------------------------------------------------------


def test_revert_identity():
    x = qpoly(X, {(1,): 1})
    assert revert_series(x, 10) == x


def test_revert_example():
    f = qpoly(X, {(1,): 1, (4,): Fraction(1, 2)})
    g = revert_series(f, 8)
    # below x^7 the inverse is x - x^4/2; the first composition correction
    # enters at x^7 with coefficient 1 (solve g + g^4/2 = x degree by degree)
    assert {e: c for e, c in g.terms.items() if e[0] < 7} == {
        (1,): 1,
        (4,): Fraction(-1, 2),
    }
    assert g.coefficient((7,)) == 1


def test_revert_defining_property_random():
    rng = random.Random(43)
    d = 12
    for _ in range(10):
        terms = {(1,): Fraction(1)}
        for k in range(2, d):
            if rng.random() < 0.4:
                terms[(k,)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        f = qpoly(X, terms)
        g = revert_series(f, d)
        trunc = TruncationPolicy(d, "x")
        x = qpoly(X, {(1,): 1})
        assert f.substitute({"x": g}, trunc) == x
        assert g.substitute({"x": f}, trunc) == x


def test_revert_over_z_equals_revert_over_q():
    # a monic integer series has an integral inverse; Miller's recurrence
    # finds the same one over Z, with exact divisions, as over Q
    rng = random.Random(47)
    d = 24
    x = SparsePoly(X, INTEGERS, {(1,): 1})
    trunc = TruncationPolicy(d, "x")
    for _ in range(8):
        terms = {(1,): 1}
        for k in range(2, d + 3):
            if rng.random() < 0.5:
                terms[(k,)] = rng.randint(-9, 9)
        f = SparsePoly(X, INTEGERS, terms)
        g = revert_series(f, d)
        assert g.domain == INTEGERS
        assert g.map_domain(RATIONALS) == revert_series(f.map_domain(RATIONALS), d)
        assert f.substitute({"x": g}, trunc) == x
        assert g.substitute({"x": f}, trunc) == x


def test_revert_over_z_refuses_an_inexact_division():
    # a half-integer smuggled past the constructor into a series over Z makes
    # 2 * [x^2] u^3 = -3 odd; the quotient is refused, never floored
    f = SparsePoly._trusted(X, INTEGERS, {(1,): 1, (3,): Fraction(1, 2)})
    with pytest.raises(InternalConsistencyError):
        revert_series(f, 6)


def test_revert_rejects_bad_leading_terms():
    with pytest.raises(StructuralError):
        revert_series(qpoly(X, {(0,): 1, (1,): 1}), 5)
    with pytest.raises(StructuralError):
        revert_series(qpoly(X, {(1,): 2}), 5)
    with pytest.raises(StructuralError):
        revert_series(qpoly(XY, {(1, 0): 1}), 5)
    with pytest.raises(StructuralError):
        revert_series(SparsePoly(X, prime_field(2), {(1,): 1}), 5)


# ---- the oracle law -----------------------------------------------------------------


def test_oracle_rational_p2_s2_degree5():
    # exp(log x + log y) with log = x + x^4/2, expanded by hand mod degree 5
    orc = oracle_fgl(FglParams(2, 2), 5)
    assert orc.poly_rational == qpoly(
        XY,
        {(1, 0): 1, (0, 1): 1, (3, 1): -2, (2, 2): -3, (1, 3): -2},
    )
    assert orc.poly_mod_p == SparsePoly(
        XY, prime_field(2), {(1, 0): 1, (0, 1): 1, (2, 2): 1}
    )


@pytest.mark.parametrize("p,s,degree", [(2, 2, 9), (3, 2, 10), (2, 3, 9), (5, 2, 7)])
def test_oracle_starts_x_plus_y_and_axioms(p, s, degree):
    params = FglParams(p, s)
    orc = oracle_fgl(params, degree)
    terms = orc.poly_mod_p.terms
    # no mixed terms below total degree q + 1
    for (i, j), _ in terms.items():
        if i and j:
            assert i + j >= params.q + 1
    # unit laws and full term-map symmetry (total-degree truncation is symmetric)
    assert {e: c for e, c in terms.items() if e[1] == 0} == {(1, 0): 1}
    assert {e: c for e, c in terms.items() if e[0] == 0} == {(0, 1): 1}
    assert dict(terms) == {(j, i): c for (i, j), c in terms.items()}
    # p-integrality, restated directly on the rational law
    assert all(c.denominator % p for c in orc.poly_rational.terms.values())


@pytest.mark.parametrize("p,s,degree,k", [(2, 2, 5, 1), (3, 2, 10, 1), (2, 3, 9, 1), (2, 2, 17, 2)])
def test_oracle_p_series_is_power_of_x(p, s, degree, k):
    orc = oracle_fgl(FglParams(p, s), degree)
    assert oracle_p_series(orc, k).terms == {(p ** (s * k),): 1}


def test_oracle_p_series_identity():
    orc = oracle_fgl(FglParams(2, 2), 5)
    assert oracle_p_series(orc, 0).terms == {(1,): 1}


@pytest.mark.parametrize("p,s,degree", [(2, 2, 8), (3, 2, 7), (2, 3, 7)])
def test_oracle_associativity_small(p, s, degree):
    assert check_associativity(oracle_fgl(FglParams(p, s), degree)).ok


@pytest.mark.parametrize("p,s,degree", [(2, 2, 33), (3, 2, 28), (5, 2, 26), (2, 1, 12)])
def test_oracle_law_has_the_honda_logarithm(p, s, degree):
    # l(F(x, y)) = l(x) + l(y) mod total degree D, over Q: a certificate of
    # the law that does not go through the substitution x = p*t
    params = FglParams(p, s)
    log = honda_log(params, degree)
    trunc = TruncationPolicy(degree)
    x, y = (SparsePoly.variable(XY, RATIONALS, name) for name in XY)
    lhs = log.substitute({"x": oracle_fgl(params, degree).poly_rational}, trunc)
    assert lhs == log.substitute({"x": x}, trunc) + log.substitute({"x": y}, trunc)
    assert len(lhs.terms) > 2  # the check reaches past the linear terms


def bivariate_composition(params, degree):
    """F as the oracle composed it before the binomial form: E(L(u) + L(v))
    by substitution into the bivariate powers of L(u) + L(v), over Z, then
    [x^i y^j] F = G_ij / p^(i+j-1)."""
    p = params.p
    trunc = TruncationPolicy(degree)
    log = {e: c * p ** (e[0] - 1) for e, c in honda_log(params, degree).terms.items()}
    log = SparsePoly(X, INTEGERS, log)
    exp = revert_series(log, degree)
    u, v = (SparsePoly.variable(XY, INTEGERS, name) for name in XY)
    log_sum = log.substitute({"x": u}, trunc) + log.substitute({"x": v}, trunc)
    g = exp.substitute({"x": log_sum}, trunc)
    return qpoly(XY, {e: Fraction(c, p ** (sum(e) - 1)) for e, c in g.terms.items()})


@pytest.mark.parametrize("p,s,degree", [(2, 1, 20), (2, 2, 65), (3, 2, 40), (5, 2, 30), (2, 3, 33)])
def test_binomial_composition_equals_bivariate_substitution(p, s, degree):
    # s = 1 makes L dense (q - 1 = 1), so every power of L meets every degree
    params = FglParams(p, s)
    assert oracle_fgl(params, degree).poly_rational == bivariate_composition(params, degree)


def test_height_one_exploration():
    params = FglParams(2, 1)
    orc = oracle_fgl(params, 6)
    assert oracle_p_series(orc, 1).terms == {(2,): 1}


# ---- engine comparison ----------------------------------------------------------------


def test_compare_empty_on_matching_pipelines():
    params = FglParams(2, 2)
    tower = build_tower(params, 2)
    orc = oracle_fgl(params, 5)
    report = compare(tower[-1], orc)
    assert report.ok
    assert report.mismatches == ()
    assert "agree" in report.summary()


@pytest.mark.parametrize(
    "p,s,level,degree",
    [(2, 2, 6, 97), (3, 2, 4, 81), (2, 3, 3, 64), (2, 2, 7, 129), (3, 2, 5, 243)],
)
def test_engine_equals_oracle_at_depth(p, s, level, degree):
    # overlaps of D >= 64 at levels 3-7, beyond the criterion-3 grid
    params = FglParams(p, s)
    top = build_tower(params, level)[-1]
    report = compare(top, oracle_fgl(params, degree))
    assert report.ok, report.summary()
    # the overlap holds mixed monomials, not only x + y
    assert any(i and j and i + j < degree for i, j in top.poly.terms)


def test_compare_detects_corruption():
    params = FglParams(2, 2)
    tower = build_tower(params, 2)
    corrupted = TruncatedFgl(
        params,
        2,
        tower[-1].poly + SparsePoly(XY, prime_field(2), {(1, 1): 1}),
    )
    report = compare(corrupted, oracle_fgl(params, 5))
    assert not report.ok
    assert (1, 1, 1, 0) in report.mismatches
    assert "x^1*y^1" in report.summary()


def test_compare_rejects_parameter_mismatch():
    tower = build_tower(FglParams(2, 2), 2)
    orc = oracle_fgl(FglParams(3, 2), 5)
    with pytest.raises(StructuralError):
        compare(tower[-1], orc)


def test_default_compare_degree():
    assert default_compare_degree(FglParams(2, 2), 2) == 5  # max(4+1, 4)
    assert default_compare_degree(FglParams(2, 2), 4) == 16  # max(5, 16)
    assert default_compare_degree(FglParams(3, 2), 2) == 10
