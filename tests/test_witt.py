import math

import pytest

from hondafgl import witt
from hondafgl.cli import main
from hondafgl.errors import InternalConsistencyError, ParameterError, ResourceLimitError
from hondafgl.ring import INTEGERS, SparsePoly, prime_field
from hondafgl.witt import VARS, WittFamily, _power, witt_family, witt_mod_p


# tiny independent arithmetic on {(i, j): coeff} dicts, used as the
# brute-force oracle so nothing here depends on SparsePoly internals
def _mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _scale(a, c):
    return {k: v * c for k, v in a.items()}


def _pow(a, e):
    out = {(0, 0): 1}
    for _ in range(e):
        out = _mul(out, a)
    return out


def w1_closed_form(p):
    """w_1 = -(1/p) * sum_{0<j<p} C(p,j) x^j y^(p-j), used as a cross-check."""
    terms = {(j, p - j): -(math.comb(p, j) // p) for j in range(1, p)}
    return SparsePoly(VARS, INTEGERS, terms)


def test_w0_is_x_plus_y():
    fam = witt_family(2, 0)
    assert fam.polys[0] == SparsePoly(VARS, INTEGERS, {(1, 0): 1, (0, 1): 1})


@pytest.mark.parametrize("p,expected", [
    (2, {(1, 1): -1}),
    (3, {(2, 1): -1, (1, 2): -1}),
])
def test_w1_matches_closed_form(p, expected):
    fam = witt_family(p, 1)
    assert fam.polys[1] == SparsePoly(VARS, INTEGERS, expected)
    assert fam.polys[1] == w1_closed_form(p)


def test_w1_closed_form_agrees_with_solver_p5_p7():
    for p in (5, 7):
        assert witt_family(p, 1).polys[1] == w1_closed_form(p)


def test_w2_p2_brute_force():
    # solve x^4 + y^4 = (x+y)^4 + 2 w1^2 + 4 w2 for w2, with w1 = -xy
    lhs = {(4, 0): 1, (0, 4): 1}
    w0_pow = _pow({(1, 0): 1, (0, 1): 1}, 4)
    w1_sq = _scale(_pow({(1, 1): -1}, 2), 2)
    residual = _add(lhs, _scale(_add(w0_pow, w1_sq), -1))
    w2 = {k: v // 4 for k, v in residual.items()}
    assert all(v % 4 == 0 for v in residual.values())
    assert w2 == {(3, 1): -1, (2, 2): -2, (1, 3): -1}
    fam = witt_family(2, 2)
    assert dict(fam.polys[2].terms) == w2


@pytest.mark.parametrize("p,jmax", [(2, 4), (3, 3), (5, 3)])
def test_defining_identity_exact(p, jmax):
    fam = witt_family(p, jmax)
    for n in range(jmax + 1):
        lhs, rhs = fam.identity_sides(n)
        assert lhs == rhs


@pytest.mark.parametrize("p,jmax", [(2, 3), (3, 2), (5, 2)])
def test_homogeneous_symmetric_vanishing(p, jmax):
    fam = witt_family(p, jmax)
    for j, w in enumerate(fam.polys):
        degrees = {i + k for (i, k) in w.terms}
        assert degrees == {p**j}
        assert dict(w.terms) == {(k, i): c for (i, k), c in w.terms.items()}
        if j > 0:
            assert all(i > 0 and k > 0 for (i, k) in w.terms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kronecker_power_equals_ring_pow(p):
    # every w_j^(p^(n-j)), j <= n <= 3, that witt_family and verify take
    fam = witt_family(p, 3)
    for j, w in enumerate(fam.polys):
        for n in range(j, 4):
            k = p ** (n - j)
            assert _power(w, k) == w.pow(k), (p, j, k)


def test_kronecker_slot_width_is_tight():
    # one term attains the bound |coeff| <= ||w||_1^k the width is chosen from
    for c, k in [(1, 1), (1, 6), (2, 5), (3, 7), (-3, 8), (255, 3), (-256, 2)]:
        w = SparsePoly(VARS, INTEGERS, {(2, 1): c})
        assert _power(w, k) == w.pow(k) == SparsePoly(VARS, INTEGERS, {(2 * k, k): c**k})
    w = SparsePoly(VARS, INTEGERS, {(3, 0): 7, (2, 1): -5, (0, 3): 9})
    for k in range(7):
        assert _power(w, k) == w.pow(k)


def test_mod_p_reductions():
    fam2 = witt_family(2, 2)
    r2 = witt_mod_p(fam2)
    assert r2[1] == SparsePoly(VARS, prime_field(2), {(1, 1): 1})
    assert r2[2] == SparsePoly(VARS, prime_field(2), {(3, 1): 1, (1, 3): 1})
    fam3 = witt_family(3, 1)
    r3 = witt_mod_p(fam3)
    assert r3[1] == SparsePoly(VARS, prime_field(3), {(2, 1): 2, (1, 2): 2})


def test_mod_p_preserves_structure():
    for w in witt_mod_p(witt_family(3, 2))[1:]:
        assert all(i > 0 and k > 0 for (i, k) in w.terms)
        assert dict(w.terms) == {(k, i): c for (i, k), c in w.terms.items()}


def test_parameter_validation():
    with pytest.raises(ParameterError):
        witt_family(4, 1)
    with pytest.raises(ParameterError):
        witt_family(2, -1)
    # 2.0 used to pass the primality test and fail later, on its exponents
    with pytest.raises(ParameterError, match="^p must be prime, got 2.0$"):
        witt_family(2.0, 1)


def test_degree_guard(monkeypatch):
    with pytest.raises(ResourceLimitError):
        witt_family(2, 21)  # 2^21 > 10^6
    # configurable
    monkeypatch.setenv("FGL_MAX_TERMS", "8")
    fam = witt_family(2, 3)
    assert fam.jmax == 3
    with pytest.raises(ResourceLimitError):
        witt_family(2, 4)


# ---- the certificate's failure branches ------------------------------------------


def test_verify_refuses_a_changed_coefficient():
    w = witt_family(2, 2).polys
    e = next(iter(w[2].terms))
    changed = w[2] + SparsePoly(VARS, INTEGERS, {e: 1})
    with pytest.raises(InternalConsistencyError, match=r"^Witt identity fails at p=2, n=2$"):
        WittFamily(2, (w[0], w[1], changed)).verify()


def _off_by_one_power(monkeypatch):
    # every power w^k gains 1 on its x^deg term, so the solve's first
    # numerator is no longer divisible by p
    power = witt._power

    def off_by_one(w, k):
        out = power(w, k)
        return out + SparsePoly(VARS, INTEGERS, {max(out.terms): 1})

    monkeypatch.setattr(witt, "_power", off_by_one)


def test_solve_refuses_an_inexact_division(monkeypatch):
    _off_by_one_power(monkeypatch)
    with pytest.raises(InternalConsistencyError, match=r"^coefficient -1 of \(2, 0\) in w_1 numerator not divisible by 2$"):
        witt_family(2, 2)


def test_cli_reports_a_failed_certificate(monkeypatch, capsys):
    _off_by_one_power(monkeypatch)
    assert main(["witt", "--p", "2", "--jmax", "2"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("fgl: error: ") and len(err.splitlines()) == 1
