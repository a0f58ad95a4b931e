import json
import random
import re
from fractions import Fraction

import pytest

from hondafgl.errors import IntegralityError, ParameterError, StructuralError
from hondafgl.ring import (
    INTEGERS,
    NO_TRUNCATION,
    RATIONALS,
    Domain,
    SparsePoly,
    TruncationPolicy,
    elementary_symmetric_all,
    _is_prime,
    prime_field,
)

XY = ("x", "y")
F2 = prime_field(2)
F3 = prime_field(3)


def poly(variables, domain, terms):
    return SparsePoly(variables, domain, terms)


def random_poly(rng, variables, domain, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        if domain == RATIONALS:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = rng.randint(-9, 9)
        terms[e] = terms.get(e, 0) + c
    return SparsePoly(variables, domain, terms)


# ---- domains ---------------------------------------------------------------


def test_prime_field_requires_prime():
    with pytest.raises(ParameterError, match="^prime field modulus must be prime, got 4$"):
        prime_field(4)
    with pytest.raises(ParameterError, match="^prime field modulus must be prime, got 1$"):
        prime_field(1)
    with pytest.raises(ParameterError, match="^prime field modulus must be prime, got None$"):
        Domain("fp")
    with pytest.raises(StructuralError, match="^unknown coefficient domain kind 'mod'$"):
        Domain("mod", 2)
    with pytest.raises(StructuralError, match="^domain 'int' takes no modulus$"):
        Domain("int", 2)
    assert prime_field(7).p == 7
    assert repr(prime_field(7)) == "Domain(kind='fp', p=7)"


def test_is_prime_matches_a_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_is_prime_rejects_pseudoprimes_and_refuses_past_its_limit():
    assert not _is_prime(561)  # Carmichael number
    assert not _is_prime(3_057_601)  # Carmichael number 43 * 211 * 337, coprime to every base
    assert not _is_prime(3_215_031_751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(3_825_123_056_546_413_051)  # ... to bases 2 through 23
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)
    # the limit itself is a strong pseudoprime to all 13 bases
    with pytest.raises(ParameterError, match="too large"):
        _is_prime(3_317_044_064_679_887_385_961_981)


def test_prime_field_residues_canonical():
    f = poly(XY, F3, {(1, 0): 5, (0, 1): -1})
    assert f.terms == {(1, 0): 2, (0, 1): 2}


def test_integer_domain_rejects_proper_fraction():
    with pytest.raises(StructuralError):
        poly(XY, INTEGERS, {(1, 0): Fraction(1, 2)})
    with pytest.raises(StructuralError):
        SparsePoly.one(XY, INTEGERS).scale(Fraction(1, 2))
    # integer-valued fractions are fine
    assert poly(XY, INTEGERS, {(1, 0): Fraction(4, 2)}).terms == {(1, 0): 2}


@pytest.mark.parametrize("domain", [prime_field(5), INTEGERS, RATIONALS], ids=str)
def test_coefficients_must_be_int_or_fraction(domain):
    # a float or a str used to be stored, rounded or parsed, or to fail in `%`
    for bad in (1.5, 2.0, "1", "1/2"):
        with pytest.raises(StructuralError, match=type(bad).__name__):
            poly(XY, domain, {(1, 0): bad})
        with pytest.raises(StructuralError, match=type(bad).__name__):
            SparsePoly.one(XY, domain).scale(bad)


def test_domain_str():
    assert str(F2) == "F_2"
    assert str(INTEGERS) == "Z"
    assert str(RATIONALS) == "Q"


# ---- construction and canonical order --------------------------------------


def test_zero_coefficients_never_stored():
    f = poly(XY, INTEGERS, {(1, 0): 1, (2, 0): 0})
    assert f.terms == {(1, 0): 1}
    assert not SparsePoly.zero(XY, INTEGERS)


def test_graded_lex_order():
    f = poly(XY, F2, {(2, 2): 1, (0, 1): 1, (1, 0): 1})
    assert [e for e, _ in f.sorted_terms()] == [(1, 0), (0, 1), (2, 2)]
    g = poly(XY, F2, {(1, 3): 1, (3, 1): 1})
    assert g.to_text() == "x^3*y + x*y^3"


def test_variable_validation():
    for variables in ((), ("x", "x"), ("x", "2y"), ("x", "y z")):
        for _ in range(2):  # a refused variable tuple is not remembered as checked
            with pytest.raises(StructuralError):
                SparsePoly(variables, INTEGERS, {})
    for bad in ({(1,): 1}, {(1, 0, 0): 1}, {(-1, 0): 1}, {(1.0, 0): 1}):  # arity, sign, type
        with pytest.raises(StructuralError):
            poly(XY, INTEGERS, bad)
    # an exponent that cannot be compared with 0 is refused by its type, not by `<`
    for bad in ({("a",): 1}, {(None,): 1}):
        with pytest.raises(StructuralError, match="^exponents must be non-negative integers"):
            poly(("x",), INTEGERS, bad)


# ---- add -------------------------------------------------------------------


def test_add_identity():
    f = poly(XY, INTEGERS, {(1, 0): 1, (0, 1): 1})
    assert f + SparsePoly.zero(XY, INTEGERS) == f


def test_add_characteristic_two():
    x = SparsePoly.variable(XY, F2, "x")
    assert not (x + x)


def test_add_cancellation():
    f = poly(XY, INTEGERS, {(2, 0): 1, (0, 1): 3})
    g = poly(XY, INTEGERS, {(0, 1): -3})
    assert f + g == poly(XY, INTEGERS, {(2, 0): 1})


def test_add_mismatch_errors():
    f = poly(XY, INTEGERS, {(1, 0): 1})
    with pytest.raises(StructuralError):
        f + poly(("x", "z"), INTEGERS, {(1, 0): 1})
    with pytest.raises(StructuralError):
        f + poly(XY, RATIONALS, {(1, 0): 1})


# ---- mul / pow -------------------------------------------------------------


def test_mul_freshmans_dream():
    f = poly(XY, F2, {(1, 0): 1, (0, 1): 1})
    assert f.mul(f) == poly(XY, F2, {(2, 0): 1, (0, 2): 1})


def test_mul_truncated_by_cap():
    f = poly(XY, INTEGERS, {(1, 0): 1, (0, 1): 1})
    capped = f.mul(f, TruncationPolicy(2, "y"))
    assert capped == poly(XY, INTEGERS, {(2, 0): 1, (1, 1): 2})
    # x^3 + x*y^2 + y: the x-exponent, the y-exponent and the total degree
    # each keep a different part
    f = poly(XY, INTEGERS, {(3, 0): 1, (1, 2): 1, (0, 1): 1})
    cases = [((3, "x"), {(1, 2), (0, 1)}), ((2, "y"), {(3, 0), (0, 1)}), ((3,), {(0, 1)}), ((4,), set(f.terms))]
    for args, want in cases:
        t = TruncationPolicy(*args)
        assert set(f.truncate(t).terms) == want, t
        assert set(f.mul(SparsePoly.one(XY, INTEGERS), t).terms) == want, t
        assert set(SparsePoly.one(XY, INTEGERS).mul(f, t).terms) == want, t


def test_mul_one_is_identity():
    rng = random.Random(7)
    one = SparsePoly.one(XY, INTEGERS)
    for _ in range(20):
        a = random_poly(rng, XY, INTEGERS)
        assert a.mul(one) == a


def test_pow_zero_and_frobenius():
    f = poly(XY, F3, {(1, 0): 1, (0, 1): 1})
    assert f.pow(0) == SparsePoly.one(XY, F3)
    for p in (2, 3, 5):
        fp = prime_field(p)
        g = poly(XY, fp, {(1, 0): 1, (0, 1): 1})
        assert g.pow(p) == poly(XY, fp, {(p, 0): 1, (0, p): 1})


def test_pow_monomial():
    xy = poly(XY, F2, {(1, 1): 1})
    assert xy.pow(2) == poly(XY, F2, {(2, 2): 1})


def test_pow_negative_exponent_rejected():
    for exponent, shown_as in ((-1, "-1"), (2.5, "2.5"), ("3", "'3'"), (None, "None")):
        with pytest.raises(StructuralError, match=f"^exponent must be a non-negative int, got {re.escape(shown_as)}$"):
            SparsePoly.one(XY, F2).pow(exponent)


# ---- truncation policies ----------------------------------------------------


# One bound each, on x, on y and on the total degree; the last two leave nothing.
XY_POLICIES = (
    TruncationPolicy(4, "x"),
    TruncationPolicy(3, "y"),
    TruncationPolicy(6),
    TruncationPolicy(0, "x"),
    TruncationPolicy(0),
)


def kept(f, trunc):
    """The terms of f whose weight is below trunc's bound, filtered one by one:
    the reference for mul's bisection."""
    weight = sum if trunc.var is None else (lambda e: e[f.variables.index(trunc.var)])
    return {e: c for e, c in f.terms.items() if trunc.bound is None or weight(e) < trunc.bound}


def test_truncation_idempotent():
    rng = random.Random(11)
    for t in XY_POLICIES + (NO_TRUNCATION,):
        for _ in range(25):
            a = random_poly(rng, XY, INTEGERS, max_exp=8)
            once = a.truncate(t)
            assert once.terms == kept(a, t), t
            assert once.truncate(t) == once


def test_truncation_commutes_with_add():
    rng = random.Random(13)
    for t in XY_POLICIES:
        for _ in range(25):
            a = random_poly(rng, XY, INTEGERS, max_exp=8)
            b = random_poly(rng, XY, INTEGERS, max_exp=8)
            assert (a + b).truncate(t) == a.truncate(t) + b.truncate(t)


def test_truncated_mul_equals_truncated_exact_product():
    # on inputs already satisfying the policy, truncate-after-multiply
    # agrees with truncating inside the product, and with filtering the
    # exact product term by term
    rng = random.Random(17)
    for t in XY_POLICIES:
        for _ in range(30):
            a = random_poly(rng, XY, INTEGERS, max_terms=20, max_exp=6).truncate(t)
            b = random_poly(rng, XY, INTEGERS, max_terms=20, max_exp=6).truncate(t)
            exact = a.mul(b)
            assert a.mul(b, t) == exact.truncate(t)
            assert a.mul(b, t).terms == kept(exact, t), t


def test_truncation_policy_rejects_negative_cap():
    for var in ("x", None):
        with pytest.raises(StructuralError, match="^negative truncation bound -1$"):
            TruncationPolicy(-1, var)
    # a bound that is not an int used to fail on its sign test ("3") or cut like 3 (2.5)
    for bound, message in (("3", "'3' is a str"), (2.5, "2.5 is a float")):
        with pytest.raises(StructuralError, match=f"^truncation bound {re.escape(message)}, not an int$"):
            TruncationPolicy(bound, "y")
    t = TruncationPolicy(3, "y")
    assert (t.bound, t.var) == (3, "y") and t == TruncationPolicy(var="y", bound=3)
    assert TruncationPolicy(6) == (6, None) and NO_TRUNCATION == TruncationPolicy() == (None, None)


def test_truncation_bound_on_an_absent_variable_is_refused():
    # such a bound used to be ignored silently
    f = poly(XY, F3, {(1, 0): 1, (0, 1): 1})
    t = TruncationPolicy(3, "z")
    for call in (lambda: f.mul(f, t), lambda: f.truncate(t), lambda: f.pow(4, t), lambda: f.pow(0, t)):
        with pytest.raises(StructuralError, match=r"^truncation variable 'z' is not one of \('x', 'y'\)$"):
            call()


def test_total_degree_cap_is_exclusive():
    f = poly(XY, INTEGERS, {(2, 0): 1, (1, 1): 1})
    t = TruncationPolicy(2)
    assert not f.truncate(t)
    assert f.truncate(TruncationPolicy(3)) == f


# ---- ring axioms on random inputs -------------------------------------------


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS, F2, F3])
def test_ring_axioms(domain):
    rng = random.Random(23)
    for _ in range(15):
        a = random_poly(rng, XY, domain)
        b = random_poly(rng, XY, domain)
        c = random_poly(rng, XY, domain)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b + c) == a.mul(b) + a.mul(c)


# ---- results of the ring's own arithmetic are canonical -------------------------

# Results skip the constructor's checks, so each must already be what the
# validating constructor makes of it: residues in [0, p), no zero
# coefficients, and the coefficient type of its domain.
COEFF_TYPE = {"fp": int, "int": int, "rat": Fraction}
CANONICAL_CAPS = (
    NO_TRUNCATION,
    TruncationPolicy(3, "x"),
    TruncationPolicy(4, "y"),
    TruncationPolicy(2, "z"),
    TruncationPolicy(5),
    TruncationPolicy(0),
    TruncationPolicy(0, "y"),
)


def assert_canonical(r):
    assert r == SparsePoly(r.variables, r.domain, r.terms), r
    assert all(type(c) is COEFF_TYPE[r.domain.kind] for c in r.terms.values()), r


@pytest.mark.parametrize("domain", [F2, prime_field(5), INTEGERS, RATIONALS], ids=str)
def test_arithmetic_results_equal_their_validated_copies(domain):
    rng = random.Random(str(domain))
    for n in (1, 2, 3):
        variables, names = ("x", "y", "z")[:n], ("a", "b", "c")[:n]
        for trunc in [t for t in CANONICAL_CAPS if t.var in (None, *variables)]:
            for _ in range(4):
                f, g = (random_poly(rng, variables, domain, max_terms=5, max_exp=3) for _ in "fg")
                # `+` writes into a copy of its left operand's terms: no operand may change
                operands = [(q, dict(q.terms)) for q in (f, g)]
                results = [f.mul(g, trunc), f + g, f - g, f - f, f + f, -f, f.truncate(trunc)]
                results += [f.scale(c) for c in (0, 1, -3, 5, Fraction(4, 2))]
                results += [f.pow(k, trunc) for k in (0, 1, 2, 3, 5)]
                images = {v: random_poly(rng, variables, domain, max_terms=3, max_exp=2) for v in names}
                template = random_poly(rng, names, domain, max_terms=4, max_exp=3)
                operands += [(q, dict(q.terms)) for q in (template, *images.values())]
                results.append(template.substitute(images, trunc))
                if domain == INTEGERS:
                    results += [f.map_domain(target) for target in (F2, prime_field(5), RATIONALS)]
                if domain == RATIONALS and all(c.denominator % 5 for c in f.terms.values()):
                    results.append(f.map_domain(prime_field(5)))
                for r in results:
                    assert_canonical(r)
                for q, terms in operands:
                    assert q.terms == terms


# ---- substitution ------------------------------------------------------------


def test_substitute_linear():
    ab = ("a", "b")
    template = poly(ab, INTEGERS, {(1, 0): 1, (0, 1): 1})
    x_plus_y = poly(XY, INTEGERS, {(1, 0): 1, (0, 1): 1})
    xy = poly(XY, INTEGERS, {(1, 1): 1})
    got = template.substitute({"a": x_plus_y, "b": xy})
    assert got == poly(XY, INTEGERS, {(1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_substitute_annihilation():
    ab = ("a", "b")
    template = poly(ab, INTEGERS, {(1, 1): 1})
    x = SparsePoly.variable(XY, INTEGERS, "x")
    zero = SparsePoly.zero(XY, INTEGERS)
    assert not template.substitute({"a": x, "b": zero})


def test_substitute_matches_direct_expansion():
    # template a + b + a^2 b^2 evaluated three ways, against explicit
    # add/mul chains on the same images
    ab = ("a", "b")
    template = poly(ab, F2, {(1, 0): 1, (0, 1): 1, (2, 2): 1})
    x = SparsePoly.variable(XY, F2, "x")
    y = SparsePoly.variable(XY, F2, "y")
    grid = [
        (x + y, x.mul(y)),
        (x, y),
        (x.mul(x) + y, x + y),
    ]
    for a_img, b_img in grid:
        direct = a_img + b_img + a_img.mul(a_img).mul(b_img).mul(b_img)
        assert template.substitute({"a": a_img, "b": b_img}) == direct


def test_substitute_missing_and_extra_variables():
    ab = ("a", "b")
    template = poly(ab, INTEGERS, {(1, 0): 1})
    x = SparsePoly.variable(XY, INTEGERS, "x")
    with pytest.raises(StructuralError):
        template.substitute({"a": x})
    with pytest.raises(StructuralError):
        template.substitute({"a": x, "b": x, "c": x})


def test_substitute_domain_mismatch():
    ab = ("a", "b")
    template = poly(ab, INTEGERS, {(1, 0): 1, (0, 1): 1})
    x = SparsePoly.variable(XY, F2, "x")
    with pytest.raises(StructuralError):
        template.substitute({"a": x, "b": x})


# ---- powers: over F_p a p^r-th power only scales exponents ---------------------

# One bound each.  Under a variable cap every image's non-constant part is
# divisible by the capped variable, as the ladder's b_j is by y, so the
# repeated-mul reference stays small up to k = 342 although the other
# variables are unbounded.  The last two leave nothing, not even f^0 = 1.
POWER_CAPS = (
    TruncationPolicy(12, "x"),
    TruncationPolicy(3, "y"),
    TruncationPolicy(2, "z"),
    TruncationPolicy(10),
    TruncationPolicy(0),
    TruncationPolicy(0, "y"),
)


def naive_powers(f, top, trunc):
    """f^0 .. f^top by repeated truncated mul: the reference for pow and substitute."""
    out = [SparsePoly.one(f.variables, f.domain).truncate(trunc)]
    for _ in range(top):
        out.append(out[-1].mul(f, trunc))
    return out


def check_powers_against_repeated_mul(rng, domain, exponents):
    """Returns the (k, trunc) of every power of k >= p^2 (over F_p) that a
    variable cap cuts and that keeps more than one term."""
    survivors = []
    for n in (1, 2, 3):
        variables, names = ("x", "y", "z")[:n], ("a", "b", "c")[:n]
        for trunc in [t for t in POWER_CAPS if t.var in (None, *variables)]:
            # a unit constant term keeps the high powers from truncating to 0
            one = SparsePoly.one(variables, domain)
            factor = one if trunc.var is None else SparsePoly.variable(variables, domain, trunc.var)
            images = [one + factor.mul(random_poly(rng, variables, domain, max_terms=4, max_exp=2)) for _ in names]
            naive = [naive_powers(img, max(exponents), trunc) for img in images]
            for k in exponents:
                got = images[0].pow(k, trunc)
                assert got == naive[0][k], (images[0], k, trunc)
                # the term (v*g)^k of the exact power has v-exponent >= k
                if domain.p and trunc.var and k >= max(domain.p**2, trunc.bound) and len(got.terms) > 1:
                    survivors.append((k, trunc))
            template = poly(names, domain, {tuple(rng.choice(exponents) for _ in names): rng.randint(1, 9) for _ in range(4)})
            want = SparsePoly.zero(variables, domain)
            for e, c in template.terms.items():
                term = SparsePoly.one(variables, domain)
                for col, k in zip(naive, e):
                    term = term.mul(col[k], trunc)
                want = want + term.scale(c)
            got = template.substitute(dict(zip(names, images)), trunc)
            assert got == want.truncate(trunc), (template, images, trunc)
    return survivors


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_powers_match_repeated_mul(p):
    rng = random.Random(p)
    exponents = [0, 1, p - 1, p, p**2, p**2 + p - 1, rng.randrange(p**3)]
    # twists past the first digit are cut by the cap, yet leave the power more than 1
    assert check_powers_against_repeated_mul(rng, prime_field(p), exponents)


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
def test_powers_over_z_and_q_match_repeated_mul(domain):
    # the exponents of the F_2 and F_3 cases: over Z and Q a p-th power is
    # no twist, and these must come out as the plain repeated products
    rng = random.Random(41)
    check_powers_against_repeated_mul(rng, domain, [0, 1, 2, 3, 4, 5, 8, 9, 11, rng.randrange(27)])


# ---- elementary symmetric -----------------------------------------------------


def test_sigma_basics():
    vs = ("x1", "x2", "x3")
    x1, x2, x3 = (SparsePoly.variable(vs, INTEGERS, v) for v in vs)
    assert elementary_symmetric_all([x1, x2])[1] == x1 + x2
    assert elementary_symmetric_all([x1, x2, x3])[2] == (
        x1.mul(x2) + x1.mul(x3) + x2.mul(x3)
    )


def test_sigma_all_equal_degenerate():
    v = SparsePoly.variable(("v",), INTEGERS, "v")
    m = 4
    assert elementary_symmetric_all([v] * m)[m] == v.pow(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sigma_generating_function_consistency(m):
    # sum_i sigma_i z^i must equal prod_j (1 + z v_j) expanded directly
    names = tuple(f"v{j}" for j in range(m)) + ("z",)
    vals = [SparsePoly.variable(names, INTEGERS, f"v{j}") for j in range(m)]
    z = SparsePoly.variable(names, INTEGERS, "z")
    one = SparsePoly.one(names, INTEGERS)
    product = one
    for v in vals:
        product = product.mul(one + z.mul(v))
    sigmas = elementary_symmetric_all(vals)
    recombined = SparsePoly.zero(names, INTEGERS)
    for i, s in enumerate(sigmas):
        recombined = recombined + s.mul(z.pow(i))
    assert recombined == product


# ---- map_domain ----------------------------------------------------------------


def test_map_domain_integers_to_f2():
    f = poly(XY, INTEGERS, {(3, 1): -1, (2, 2): -2, (1, 3): -1})
    assert f.map_domain(F2) == poly(XY, F2, {(3, 1): 1, (1, 3): 1})


def test_map_domain_zero():
    assert SparsePoly.zero(XY, INTEGERS).map_domain(F2) == SparsePoly.zero(XY, F2)


def test_map_domain_rational_inverse():
    f = poly(XY, RATIONALS, {(1, 0): Fraction(1, 2)})
    assert f.map_domain(F3) == poly(XY, F3, {(1, 0): 2})


def test_map_domain_integrality_error():
    f = poly(XY, RATIONALS, {(1, 0): Fraction(1, 2)})
    with pytest.raises(IntegralityError):
        f.map_domain(F2)


def test_map_domain_unsupported():
    f = poly(XY, F2, {(1, 0): 1})
    with pytest.raises(StructuralError):
        f.map_domain(INTEGERS)


def test_map_domain_integers_to_rationals():
    f = poly(XY, INTEGERS, {(1, 0): 3})
    assert f.map_domain(RATIONALS) == poly(XY, RATIONALS, {(1, 0): 3})


# ---- serialization ---------------------------------------------------------------


def test_json_form_documented_example():
    f = poly(XY, F2, {(1, 0): 1, (0, 1): 1, (2, 2): 1})
    assert json.dumps(f.to_json_dict(), separators=(",", ":")) == (
        '{"vars":["x","y"],"domain":{"kind":"fp","p":2},'
        '"terms":[{"e":[1],"c":"1"},{"e":[0,1],"c":"1"},{"e":[2,2],"c":"1"}]}'
    )


def test_json_round_trip_random():
    rng = random.Random(31)
    for domain in (INTEGERS, RATIONALS, F3):
        for _ in range(20):
            a = random_poly(rng, XY, domain)
            d = json.loads(json.dumps(a.to_json_dict()))
            assert (d["vars"], d["domain"]) == (list(XY), domain.to_json_dict())
            decoded = {tuple(t["e"] + [0] * (len(XY) - len(t["e"]))): Fraction(t["c"]) for t in d["terms"]}
            assert decoded == a.terms


def test_text_form_examples():
    assert SparsePoly.zero(XY, INTEGERS).to_text() == "0"
    f = poly(XY, INTEGERS, {(3, 1): -1, (2, 2): -2, (1, 3): -1})
    assert f.to_text() == "-x^3*y - 2*x^2*y^2 - x*y^3"
    g = poly(XY, RATIONALS, {(1, 0): Fraction(1, 2), (0, 0): -3})
    assert g.to_text() == "-3 + 1/2*x"


def reference_text(f):
    """The term-by-term renderer `to_text` replaced, kept as its reference."""
    if not f.terms:
        return "0"
    terms = f.terms
    names = [
        {k: "" if k == 0 else f"*{v}" if k == 1 else f"*{v}^{k}" for k in {e[i] for e in terms}}
        for i, v in enumerate(f.variables)
    ]
    chunks = []
    for e, c in f.sorted_terms():
        mono = "".join([n[k] for n, k in zip(names, e)])
        chunks.append(" - " if c < 0 else " + ")
        chunks.append(mono[1:] if mono and abs(c) == 1 else f"{abs(c)}{mono}")
    chunks[0] = "-" if chunks[0] == " - " else ""
    return "".join(chunks)


TEXT_COEFFS = (1, -1, 10, 11, -21, 2, -3, Fraction(-1), Fraction(1, 3), Fraction(-11, 7))
TEXT_NAMES = ("x", "y", "x1", "u", "_t", "a10", "B", "c_2")


@pytest.mark.parametrize("domain", [F2, prime_field(5), INTEGERS, RATIONALS], ids=str)
def test_to_text_matches_reference_renderer(domain):
    rng = random.Random(f"text {domain}")
    coeffs = [c for c in TEXT_COEFFS if domain == RATIONALS or c.denominator == 1]
    for n in range(1, 9):
        variables, const, x = TEXT_NAMES[:n], (0,) * n, (1,) + (0,) * (n - 1)
        polys = [SparsePoly(variables, domain, {const: c}) for c in coeffs]
        polys += [SparsePoly(variables, domain, {x: c}) for c in coeffs]
        for _ in range(10):
            terms = {
                tuple(rng.randint(0, 12) for _ in variables): rng.choice(coeffs) for _ in range(rng.randint(1, 40))
            }
            polys.append(SparsePoly(variables, domain, terms))
            # a negative leading term: -1, -21 or -11/7 times the first variable
            above = {e: c for e, c in terms.items() if sum(e) > 1}
            polys += [SparsePoly(variables, domain, {x: c, **above}) for c in coeffs if c <= -1]
        for f in polys:
            assert f.to_text() == reference_text(f)


def test_json_trailing_zeros_trimmed_and_restored():
    f = poly(XY, INTEGERS, {(2, 0): 5})
    d = f.to_json_dict()
    assert d["terms"] == [{"e": [2], "c": "5"}]
