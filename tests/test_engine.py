import random

import pytest

from hondafgl.engine import (
    FglParams,
    TruncatedFgl,
    build_tower,
    coefficient_table,
    extend,
    initial_fgl,
    p_series,
    verify_degree_bound,
    vs_regrade,
)
from hondafgl.errors import (
    GradingError,
    InternalConsistencyError,
    ParameterError,
    ResourceLimitError,
    StructuralError,
)
from hondafgl.oracle import oracle_fgl, oracle_p_series
from hondafgl.ring import SparsePoly, TruncationPolicy, prime_field
from hondafgl.witt import witt_family, witt_mod_p

XY = ("x", "y")

GRID = [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (5, 3)]


def fp_poly(p, terms):
    return SparsePoly(XY, prime_field(p), terms)


# ---- parameters -------------------------------------------------------------


def test_params_validation():
    assert FglParams(2, 2).q == 2
    assert FglParams(3, 2).q == 3
    assert FglParams(2, 3).q == 4
    with pytest.raises(ParameterError):
        FglParams(4, 2)
    with pytest.raises(ParameterError):
        FglParams(2, 0)
    with pytest.raises(ParameterError):
        FglParams(2, 1)
    # the oracle's explicit opt-in
    assert FglParams(2, 1, allow_height_one=True).q == 1


def test_height_one_params_cannot_enter_recursion():
    params = FglParams(2, 1, allow_height_one=True)
    with pytest.raises(ParameterError):
        initial_fgl(params)


def test_params_equality_ignores_opt_in_flag():
    assert FglParams(2, 2) == FglParams(2, 2, allow_height_one=True)


# ---- base cases ---------------------------------------------------------------


@pytest.mark.parametrize("p,s", GRID)
def test_level_one_is_x_plus_y(p, s):
    f = initial_fgl(FglParams(p, s))
    assert f.level == 1
    assert f.poly == fp_poly(p, {(1, 0): 1, (0, 1): 1})


@pytest.mark.parametrize("p,s", GRID)
def test_level_two_is_x_plus_y_plus_w1_power_q(p, s):
    params = FglParams(p, s)
    tower = build_tower(params, 2)
    w1_bar = witt_mod_p(witt_family(p, 1))[1]
    expected = fp_poly(p, {(1, 0): 1, (0, 1): 1}) + w1_bar.pow(params.q)
    assert tower[1].poly == expected


def test_level_two_values():
    assert build_tower(FglParams(2, 2), 2)[1].poly == fp_poly(
        2, {(1, 0): 1, (0, 1): 1, (2, 2): 1}
    )
    # w1 = -(x^2 y + x y^2) at p=3, cubed via Frobenius
    assert build_tower(FglParams(3, 2), 2)[1].poly == fp_poly(
        3, {(1, 0): 1, (0, 1): 1, (6, 3): 2, (3, 6): 2}
    )
    assert build_tower(FglParams(2, 3), 2)[1].poly == fp_poly(
        2, {(1, 0): 1, (0, 1): 1, (4, 4): 1}
    )


def test_level_three_p2_s2():
    # cross-checked termwise against the rational-logarithm oracle
    tower = build_tower(FglParams(2, 2), 3)
    assert tower[2].poly == fp_poly(
        2,
        {(1, 0): 1, (0, 1): 1, (2, 2): 1, (6, 4): 1, (4, 6): 1, (12, 4): 1},
    )


# ---- tower structure -----------------------------------------------------------


@pytest.mark.parametrize("p,s,level", [(2, 2, 4), (3, 2, 3), (2, 3, 3), (5, 2, 2)])
def test_tower_consistency(p, s, level):
    # each level restricted below y^(q^n) must reproduce the level before it
    params = FglParams(p, s)
    tower = build_tower(params, level)
    for lower, upper in zip(tower, tower[1:]):
        restricted = {
            e: c for e, c in upper.poly.terms.items() if e[1] < params.q**lower.level
        }
        assert restricted == dict(lower.poly.terms)


@pytest.mark.parametrize("p,s,level", [(2, 2, 4), (3, 2, 3), (2, 3, 3), (5, 2, 2)])
def test_unit_commutativity_grading(p, s, level):
    params = FglParams(p, s)
    d = p**s - 1
    for f in build_tower(params, level):
        terms = f.poly.terms
        cap = params.q**f.level
        assert {e: c for e, c in terms.items() if e[1] == 0} == {(1, 0): 1}
        assert {e: c for e, c in terms.items() if e[0] == 0} == {(0, 1): 1}
        # swapping x and y can move a term across the y-cap (x^12 y^4 of the
        # (2,2) level-3 polynomial mirrors to x^4 y^12, which the truncation
        # drops), so exact symmetry is asserted on the square both caps see
        square = {e: c for e, c in terms.items() if e[0] < cap and e[1] < cap}
        assert square == {(j, i): c for (i, j), c in square.items()}
        assert all(e[1] < cap for e in terms)
        assert all((i + j - 1) % d == 0 for (i, j) in terms)


def test_extend_rejects_bad_towers():
    params = FglParams(2, 2)
    with pytest.raises(StructuralError):
        extend([])
    t1 = initial_fgl(params)
    t2 = extend([t1])
    with pytest.raises(StructuralError):
        extend([t2])  # levels must run 1..n
    other = initial_fgl(FglParams(3, 2))
    with pytest.raises(StructuralError):
        extend([t1, TruncatedFgl(FglParams(3, 2), 2, extend([other]).poly)])


def test_extend_memory_guard():
    params = FglParams(5, 3)  # q = 25: level 3 needs y-exponents up to 25^3
    tower = build_tower(params, 2)
    with pytest.raises(ResourceLimitError) as exc:
        extend(tower, max_y_cap=10**4)
    assert exc.value.projected == 25**3


def test_ladder_certificate_guards_substitution(monkeypatch):
    # feed the ladder a "Witt polynomial" that does not vanish on the x-axis;
    # the divisibility certificate must refuse it
    import hondafgl.engine as eng

    params = FglParams(2, 2)
    tower = build_tower(params, 2)
    good = witt_mod_p(witt_family(2, 2))
    bad = list(good)
    bad[1] = SparsePoly(XY, prime_field(2), {(2, 0): 1})  # x^2: y-exponent 0
    monkeypatch.setattr(eng, "witt_mod_p", lambda fam: bad)
    with pytest.raises(InternalConsistencyError):
        extend(tower)


# ---- coefficient table -----------------------------------------------------------


def test_coefficient_table_level_two():
    f = build_tower(FglParams(2, 2), 2)[1]
    table = coefficient_table(f)
    x_ring = ("x",)
    fp = prime_field(2)
    assert set(table) == {0, 1, 2, 3}
    assert table[0] == SparsePoly(x_ring, fp, {(1,): 1})
    assert table[1] == SparsePoly.one(x_ring, fp)
    assert table[2] == SparsePoly(x_ring, fp, {(2,): 1})
    assert not table[3]


def test_coefficient_table_level_one_any_params():
    f = initial_fgl(FglParams(2, 3))  # q = 4
    table = coefficient_table(f)
    assert set(table) == {0, 1, 2, 3}
    assert table[0].terms == {(1,): 1}
    assert table[1].terms == {(0,): 1}
    assert not table[2] and not table[3]


@pytest.mark.parametrize("p,s,level", [(2, 2, 3), (3, 2, 2)])
def test_coefficient_table_reassembles(p, s, level):
    f = build_tower(FglParams(p, s), level)[-1]
    rebuilt = {}
    for l, a in coefficient_table(f).items():
        for (i,), c in a.terms.items():
            rebuilt[(i, l)] = c
    assert rebuilt == dict(f.poly.terms)


# ---- degree bound ------------------------------------------------------------------


@pytest.mark.parametrize("p,s,level", [(2, 2, 4), (3, 2, 3), (2, 3, 3)])
def test_degree_bound_passes(p, s, level):
    for f in build_tower(FglParams(p, s), level):
        report = verify_degree_bound(f)
        assert report.passed
        assert report.violations == ()


def test_degree_bound_example_p2_s2():
    f = build_tower(FglParams(2, 2), 2)[1]
    report = verify_degree_bound(f)
    assert report.passed
    # x^2 y^2 sits in the m=2 window: largest x-exponent 2, bound (pq)^2 = 16
    assert report.windows[2] == (2, 16)


def test_degree_bound_reports_violations():
    params = FglParams(2, 2)
    fake = TruncatedFgl(params, 2, fp_poly(2, {(1, 0): 1, (0, 1): 1, (20, 1): 1}))
    report = verify_degree_bound(fake)
    assert not report.passed
    assert (20, 1, 1) in report.violations
    assert (20, 1, 2) in report.violations


# ---- p-series ------------------------------------------------------------------------


def test_p_series_identity_iterate():
    for p, s in [(2, 2), (3, 2)]:
        tower = build_tower(FglParams(p, s), 2)
        series = p_series(tower, 0)
        assert series.poly.terms == {(1,): 1}


def test_p_series_p2_s2():
    tower = build_tower(FglParams(2, 2), 3)
    series = p_series(tower, 1)
    assert series.valid_below == 8
    assert series.poly.terms == {(4,): 1}
    # [2^24](x) by 24 compositions; 2^24 - 1 diagonal substitutions would not finish
    assert not p_series(tower, 24).poly


def test_p_series_vacuous_at_boundary():
    # q^n = 9 = p^s: [3](x) = x^9 is invisible below x^9, and the returned
    # validity bound is what lets callers notice
    tower = build_tower(FglParams(3, 2), 2)
    series = p_series(tower, 1)
    assert series.valid_below == 9
    assert not series.poly


def test_p_series_p3_s2_level3():
    tower = build_tower(FglParams(3, 2), 3)
    series = p_series(tower, 1)
    assert series.valid_below == 27
    assert series.poly.terms == {(9,): 1}


def diagonal_p_series(law, multiplier, bound):
    """[multiplier](x) by its definition: multiplier - 1 diagonal substitutions."""
    trunc = TruncationPolicy(caps={"x": bound})
    x = SparsePoly.variable(("x",), law.domain, "x")
    series = x
    for _ in range(multiplier - 1):
        series = law.substitute({"x": series, "y": x}, trunc)
    return series


@pytest.mark.parametrize("p,s,level", [(2, 2, 5), (3, 2, 4), (2, 3, 3)])
def test_p_series_composition_equals_diagonal_loop(p, s, level):
    tower = build_tower(FglParams(p, s), level)
    for k in range(4):
        series = p_series(tower, k)
        assert series.poly == diagonal_p_series(tower[-1].poly, p**k, series.valid_below)


@pytest.mark.parametrize("p,s,degree", [(2, 2, 17), (3, 2, 12)])
def test_oracle_p_series_composition_equals_diagonal_loop(p, s, degree):
    orc = oracle_fgl(FglParams(p, s), degree)
    for k in range(4):
        assert oracle_p_series(orc, k) == diagonal_p_series(orc.poly_mod_p, p**k, degree)


def test_p_series_rejects_negative_k():
    tower = build_tower(FglParams(2, 2), 2)
    with pytest.raises(ParameterError):
        p_series(tower, -1)


# ---- regrading ------------------------------------------------------------------------


def test_vs_regrade_examples():
    f22 = build_tower(FglParams(2, 2), 2)[1]
    assert vs_regrade(f22) == {(1, 0): 0, (0, 1): 0, (2, 2): 1}
    f23 = build_tower(FglParams(2, 3), 2)[1]
    assert vs_regrade(f23)[(4, 4)] == 1


def test_vs_regrade_rejects_ungraded_term():
    params = FglParams(2, 2)
    fake = TruncatedFgl(params, 1, fp_poly(2, {(1, 1): 1}))
    with pytest.raises(GradingError):
        vs_regrade(fake)


def test_vs_regrade_random_levels():
    rng = random.Random(41)
    for p, s in [(2, 2), (3, 2)]:
        tower = build_tower(FglParams(p, s), 3)
        f = tower[rng.randint(0, 2)]
        grading = vs_regrade(f)
        d = p**s - 1
        assert all(e * d == i + j - 1 for (i, j), e in grading.items())
