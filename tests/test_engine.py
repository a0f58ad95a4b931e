import random
import re
import time

import pytest

from hondafgl.chern import relation_set, required_level
from hondafgl.engine import (
    FglParams,
    TruncatedFgl,
    build_tower,
    coefficient_table,
    extend,
    initial_fgl,
    law_p_series,
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
    shown,
)
from hondafgl.oracle import check_associativity, compare, oracle_fgl, oracle_p_series
from hondafgl.ring import INTEGERS, RATIONALS, SparsePoly, TruncationPolicy, prime_field
from hondafgl.witt import witt_family, witt_mod_p

XY = ("x", "y")

GRID = [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (5, 3)]


def fp_poly(p, terms):
    return SparsePoly(XY, prime_field(p), terms)


# ---- records -----------------------------------------------------------------


def test_records_are_immutable():
    params = FglParams(2, 2)
    tower = build_tower(params, 3)
    law = oracle_fgl(params, 9)
    records = [
        prime_field(2), TruncationPolicy(2, "y"), params, tower[-1], verify_degree_bound(tower[-1]),
        p_series(tower, 1), witt_family(2, 2), law, compare(tower[-1], law), check_associativity(law),
        relation_set(params, 1),
    ]
    assert len({type(r).__name__ for r in records}) == 11
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


# ---- parameters -------------------------------------------------------------


def test_params_validation():
    assert FglParams(2, 2).q == 2
    assert FglParams(3, 2).q == 3
    assert FglParams(2, 3).q == 4
    assert FglParams(s=3, p=2) == FglParams(2, 3)
    assert repr(FglParams(2, 2)) == str(FglParams(2, 2)) == "FglParams(p=2, s=2)"
    with pytest.raises(ParameterError, match="^p must be prime, got 4$"):
        FglParams(4, 2)
    with pytest.raises(ParameterError, match="^p must be prime, got '2'$"):
        FglParams("2", 2)
    with pytest.raises(ParameterError, match="^s must be a positive integer, got 0$"):
        FglParams(2, 0)
    with pytest.raises(ParameterError, match="^s must be a positive integer, got 2.0$"):
        FglParams(2, 2.0)
    # a bool used to pass as an int: FglParams(3, True) printed as s=True
    with pytest.raises(ParameterError, match="^s must be a positive integer, got True$"):
        FglParams(3, True)
    with pytest.raises(ParameterError, match="^p must be prime, got True$"):
        FglParams(True, 2)
    # accepted for the oracle; the recursion refuses it
    assert FglParams(2, 1).q == 1


def test_q_too_long_to_print_is_refused_at_once():
    # q = 2^(10^4000 - 1) used to be built on first use
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"^the y-cap of level 1 is 2\^a number of 4000 digits, beyond the limit "):
        FglParams(2, 10**4000).q
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("value", [2.5, True], ids=repr)
@pytest.mark.parametrize(
    "name,call",
    [
        ("level", lambda v: build_tower(FglParams(2, 2), v)),
        ("jmax", lambda v: witt_family(2, v)),
        ("k", lambda v: required_level(FglParams(2, 2), v)),
        ("k", lambda v: law_p_series(SparsePoly(("x", "y"), prime_field(2), {(1, 0): 1, (0, 1): 1}), v, 5)),
        ("degree bound", lambda v: oracle_fgl(FglParams(2, 2), v)),
    ],
    ids=["build_tower", "witt_family", "required_level", "law_p_series", "oracle_fgl"],
)
def test_integer_parameters_refuse_a_bool_or_non_int(name, call, value):
    # 2.5 used to fail deep inside with a TypeError, True to pass as 1
    with pytest.raises(ParameterError, match=rf"^{name} must be an int >= \d, got {re.escape(repr(value))}$"):
        call(value)


def test_height_one_params_cannot_enter_recursion():
    params = FglParams(2, 1)
    with pytest.raises(ParameterError):
        initial_fgl(params)
    with pytest.raises(ParameterError):
        build_tower(params, 3)


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


def left_bracketed_extend(tower):
    """P_{n+1} by the reference ladder, bracketed from the left: t = x + y,
    t = P_{n+1-j}(t, b_j) for j = 1 .. n-1, and P_{n+1} = t + b_n, every
    product truncated below y^(q^(n+1))."""
    params, n = tower[0].params, len(tower)
    q = params.q
    trunc = TruncationPolicy(q ** (n + 1), "y")
    wbar = witt_mod_p(witt_family(params.p, n))
    b = {j: wbar[j].pow(q**j, trunc) for j in range(1, n + 1)}
    t = tower[0].poly
    for j in range(1, n):
        t = tower[n - j].poly.substitute({"x": t, "y": b[j]}, trunc)
    return t + b[n]


@pytest.mark.parametrize("p,s,level", [(2, 2, 8), (3, 2, 5), (5, 2, 4), (2, 3, 5), (11, 2, 3)])
def test_extend_equals_left_bracketed_ladder(p, s, level):
    # both brackets substitute into the same templates P_1 .. P_n, so their
    # agreement at every level is also a partial associativity check of them
    tower = build_tower(FglParams(p, s), level)
    for n in range(1, level):
        assert tower[n].poly == left_bracketed_extend(tower[:n]), f"level {n + 1}"


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


@pytest.mark.parametrize("p,s,level", [(2, 2, 7), (3, 2, 5)])
def test_deep_tower_passes_its_intrinsic_certificates(p, s, level):
    # past the goldens and the oracle's reach: checks that need no other code
    params = FglParams(p, s)
    tower = build_tower(params, level)
    top = tower[-1]
    terms = top.poly.terms
    assert all(terms.get((j, i)) == c for (i, j), c in terms.items() if i < top.y_cap)
    assert verify_degree_bound(top).passed
    vs_regrade(top)
    for lower, upper in zip(tower, tower[1:]):
        assert upper.poly.truncate(TruncationPolicy(lower.y_cap, "y")) == lower.poly
    k = 1
    while p ** (k * s) < top.y_cap:  # [p^k](x) = x^(p^(ks)) below the validity bound
        assert law_p_series(top.poly, k, top.y_cap) == SparsePoly(("x",), params.fp, {(p ** (k * s),): 1})
        k += 1
    assert k > 1  # [p](x) at least was checked


def test_extend_rejects_bad_towers():
    params = FglParams(2, 2)
    with pytest.raises(StructuralError):
        extend([])
    t1 = initial_fgl(params)
    t2 = extend([t1])
    with pytest.raises(StructuralError):
        extend([t2])  # levels must run 1..n
    other = initial_fgl(FglParams(3, 2))
    with pytest.raises(StructuralError, match=r"^tower mixes parameters FglParams\(p=2, s=2\) and FglParams\(p=3, s=2\)$"):
        extend([t1, TruncatedFgl(FglParams(3, 2), 2, extend([other]).poly)])
    xz = SparsePoly(("x", "z"), params.fp, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(StructuralError, match=r"^tower polynomials must live in \('x', 'y'\)$"):
        extend([TruncatedFgl(params, 1, xz)])


def test_extend_memory_guard():
    params = FglParams(5, 3)  # q = 25: level 3 needs y-exponents up to 25^3
    tower = build_tower(params, 2)
    with pytest.raises(ResourceLimitError) as exc:
        extend(tower)
    assert exc.value.projected == 25**3


def test_messages_name_numbers_past_30_digits_by_power_or_digit_count():
    assert shown(10**30 - 1) == "9" * 30
    assert shown(-(10**30) + 1) == "-" + "9" * 30
    assert shown(10**30) == "a number of 31 digits"
    assert shown(10**31 - 1) == "a number of 31 digits"
    assert shown(-(10**4299)) == "a negative number of 4300 digits"
    assert shown(10**5000) == "a number of 5001 digits"  # past what str() converts
    assert shown(2**100, (2, 100)) == "2^100"
    assert shown(None, (3, 10**8)) == "3^100000000"
    assert shown(None) == "None"
    assert shown(2**20, (2, 20)) == "1048576"


def test_ladder_certificate_guards_substitution(monkeypatch):
    # feed the ladder a "Witt polynomial" that does not vanish on the x-axis;
    # the certificate on S_j must refuse it, at the inner S_1 = P_1(b_1, S_2)
    # and at the top S_2 = b_2 of level 3
    import hondafgl.engine as eng

    tower = build_tower(FglParams(2, 2), 2)
    good = witt_mod_p(witt_family(2, 2))
    for j, x_power, message in (
        (1, 2, "S_1 has monomials [(4, 0)] with y-exponent < q^1 = 2"),  # (x^2)^2
        (2, 3, "S_2 has monomials [(12, 0)] with y-exponent < q^2 = 4"),  # (x^3)^4
    ):
        bad = list(good)
        bad[j] = SparsePoly(XY, prime_field(2), {(x_power, 0): 1})
        monkeypatch.setattr(eng, "witt_mod_p", lambda fam: bad)
        with pytest.raises(InternalConsistencyError, match=rf"^ladder certificate failed at level 3: {re.escape(message)}$"):
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


@pytest.mark.parametrize("p,s,level", [(2, 2, 8), (3, 2, 5), (5, 2, 4), (7, 2, 3), (2, 3, 4), (3, 3, 3)])
def test_degree_windows_are_sharp(p, s, level):
    # observed at these towers, not proved: for m >= 2 the largest x-exponent
    # among the terms with y-exponent < q^m is q^(m-1)(p^(m-1) - 1), met only
    # by the monomial x^(q^(m-1)(p^(m-1) - 1)) y^(q^(m-1)), with coefficient
    # p - 1; the report still states the bound (pq)^m
    params = FglParams(p, s)
    q = params.q
    f = build_tower(params, level)[-1]
    windows = verify_degree_bound(f).windows
    for m in range(2, level + 1):
        top = q ** (m - 1) * (p ** (m - 1) - 1)
        assert windows[m] == (top, (p * q) ** m), f"window m={m}"
        attained = {e: c for e, c in f.poly.terms.items() if e[0] == top and e[1] < q**m}
        assert attained == {(top, q ** (m - 1)): p - 1}, f"window m={m}"


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
    trunc = TruncationPolicy(bound, "x")
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


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS], ids=str)
def test_law_p_series_needs_a_law_over_fp(domain):
    # p - 1 substitutions need p: over Z or Q it used to fail on None - 1
    law = SparsePoly(("x", "y"), domain, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(StructuralError, match=f"^the p-series needs a law over F_p, not over {domain}$"):
        law_p_series(law, 1, 5)


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
