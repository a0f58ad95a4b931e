
import pytest

from hondafgl.chern import relation_set, required_level
from hondafgl.engine import FglParams, build_tower
from hondafgl.errors import ParameterError, ResourceLimitError
from hondafgl.ring import SparsePoly, TruncationPolicy, prime_field


def test_required_level_examples():
    assert required_level(FglParams(2, 2), 1) == 2  # q^2 = 4 >= 2^2
    assert required_level(FglParams(3, 2), 1) == 2  # 3^2 >= 3^2
    assert required_level(FglParams(2, 3), 2) == 3  # 4^3 = 64 >= 2^6
    assert required_level(FglParams(2, 2), 10**9) == 2 * 10**9  # no power is taken
    with pytest.raises(ParameterError):
        required_level(FglParams(2, 2), 0)
    with pytest.raises(ParameterError):
        required_level(FglParams(2, 1), 1)
    with pytest.raises(ParameterError):
        relation_set(FglParams(2, 2), 0)


def test_required_level_is_minimal():
    for p, s, k in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1), (5, 2, 1)]:
        params = FglParams(p, s)
        n = required_level(params, k)
        assert params.q**n >= p ** (k * s)
        assert params.q ** (n - 1) < p ** (k * s)


# ---- relation generation ---------------------------------------------------------


def test_relation_set_p2_s2_k1():
    rels = relation_set(FglParams(2, 2), 1)
    assert rels.m == 2
    assert rels.level == 2
    assert rels.u_cap == 4
    assert rels.variables == ("x1", "x2", "u")
    # sigma_1 relation: F(x1,u) + F(x2,u) - x1 - x2 = u^2 (x1^2 + x2^2) over F_2
    fp = prime_field(2)
    assert rels.relations[0] == SparsePoly(
        rels.variables, fp, {(2, 0, 2): 1, (0, 2, 2): 1}
    )


def test_relations_vanish_at_u_zero():
    for p, s, k in [(2, 2, 1), (3, 2, 1)]:
        rels = relation_set(FglParams(p, s), k)
        u_index = rels.variables.index("u")
        for r in rels.relations:
            assert all(e[u_index] > 0 for e in r.terms)


def test_relations_respect_u_cap():
    for p, s, k in [(2, 2, 1), (2, 2, 2), (3, 2, 1)]:
        rels = relation_set(FglParams(p, s), k)
        assert rels.u_cap == p ** (k * s)
        u_index = rels.variables.index("u")
        assert all(e[u_index] < rels.u_cap for r in rels.relations for e in r.terms)


def test_relations_symmetric_under_root_permutations():
    rels = relation_set(FglParams(2, 2), 1)
    x1, x2, u = (SparsePoly.variable(rels.variables, prime_field(2), v) for v in rels.variables)
    swap = {"x1": x2, "x2": x1, "u": u}
    for r in rels.relations:
        assert r.substitute(swap) == r


def test_relations_symmetric_under_generator_swaps_k2():
    # adjacent transpositions generate the full symmetric group on the roots
    rels = relation_set(FglParams(2, 2), 2)
    fp = prime_field(2)
    gens = {v: SparsePoly.variable(rels.variables, fp, v) for v in rels.variables}
    roots = [f"x{j}" for j in range(1, rels.m + 1)]
    for a, b in zip(roots, roots[1:]):
        mapping = dict(gens)
        mapping[a], mapping[b] = gens[b], gens[a]
        for r in rels.relations:
            assert r.substitute(mapping) == r


def test_top_relation_equals_product_path():
    # sigma_m is the plain product, so relation_m has an independent route:
    # prod_j F(x_j, u) - prod_j x_j
    for p, s, k in [(2, 2, 1), (3, 2, 1)]:
        params = FglParams(p, s)
        rels = relation_set(params, k)
        fp = prime_field(p)
        trunc = TruncationPolicy(rels.u_cap, "u")
        top = build_tower(params, rels.level)[-1].poly
        u = SparsePoly.variable(rels.variables, fp, "u")
        prod_shifted = SparsePoly.one(rels.variables, fp)
        prod_roots = SparsePoly.one(rels.variables, fp)
        for j in range(1, rels.m + 1):
            xj = SparsePoly.variable(rels.variables, fp, f"x{j}")
            prod_shifted = prod_shifted.mul(top.substitute({"x": xj, "y": u}, trunc), trunc)
            prod_roots = prod_roots.mul(xj, trunc)
        assert rels.relations[-1] == prod_shifted - prod_roots


def test_relation_set_size_guard(monkeypatch):
    # the y-cap 4 of level 2 passes; m * |P_2| = 2 * 3 trips
    monkeypatch.setenv("FGL_MAX_TERMS", "5")
    with pytest.raises(ResourceLimitError) as exc:
        relation_set(FglParams(2, 2), 1)
    assert exc.value.projected == 6
