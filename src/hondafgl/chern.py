"""Chern-class relations from the formal group law and the splitting principle.

For a rank-m bundle written formally as a sum of line bundles with first
Chern classes x_1 .. x_m, tensoring every summand by a line bundle of order
p^k (first Chern class u, with u^(p^(ks)) = 0 because [p](x) = x^(p^s))
leaves the bundle unchanged, which forces

    sigma_i(F(x_1, u), ..., F(x_m, u)) = sigma_i(x_1, ..., x_m),  i = 1 .. m,

with m = p^k.  This module emits those relations as explicit differences
(left minus right) over F_p[u]/u^(p^(ks)), using the engine tower at the
smallest level that determines every F(x_j, u) completely under the
nilpotence of u.  The formal roots x_j are free variables: which classes a
given group actually realizes is not decided here, and neither is
completeness of the relation list.
"""

from __future__ import annotations

from typing import NamedTuple

# p_series is imported only for perfbench/spans.py, which patches chern.p_series
from .engine import FglParams, _require_recursion_height, build_tower, p_series
from .errors import guard, require_int
from .ring import SparsePoly, TruncationPolicy, elementary_symmetric_all

DEFAULT_MAX_TERMS = 10**7


def required_level(params: FglParams, k: int) -> int:
    """Smallest n with q^n >= p^(ks): the level where u-truncation takes over.

    Terms of F(x_j, u) beyond P_n differ by multiples of u^(q^n), which die
    under u^(p^(ks)) = 0 once q^n >= p^(ks); so P_n already determines every
    F(x_j, u).  Equals ceil(ks/(s-1)).
    """
    _require_recursion_height(params)
    require_int("k", k, 1)
    n = -(-k * params.s // (params.s - 1))
    assert (params.s - 1) * n >= k * params.s  # q^n >= p^(ks), without the powers
    return n


class ChernRelationSet(NamedTuple):
    """The relations sigma_i(F(x_1,u),..) - sigma_i(x_1,..), i = 1 .. m = p^k."""

    params: FglParams
    k: int
    m: int
    level: int
    u_cap: int
    variables: tuple[str, ...]
    relations: tuple[SparsePoly, ...]


def relation_set(params: FglParams, k: int) -> ChernRelationSet:
    """Generate all m relations in the variables (x_1, .., x_m, u).

    The resource guard refuses m * |P_n| terms beyond DEFAULT_MAX_TERMS.
    The tower is built, and so guarded, before m and the u-cap are computed.
    """
    n = required_level(params, k)
    top = build_tower(params, n)[-1].poly
    m = params.p**k
    u_cap = params.p ** (k * params.s)
    guard(m * len(top.terms), DEFAULT_MAX_TERMS, f"the term count m*|P_n| over {m} tensor-shifted roots")
    variables = tuple(f"x{j}" for j in range(1, m + 1)) + ("u",)
    trunc = TruncationPolicy(u_cap, "u")
    fp = params.fp
    u = SparsePoly.variable(variables, fp, "u")
    roots = [SparsePoly.variable(variables, fp, f"x{j}") for j in range(1, m + 1)]
    sigma = elementary_symmetric_all([top.substitute({"x": r, "y": u}, trunc) for r in roots], trunc)
    sigma_roots = elementary_symmetric_all(roots, trunc)
    # no one else holds the sigma_i of the shifted roots, so relation_i is
    # made in sigma_i's own packed term map: no sigma is copied or unpacked
    relations = tuple(s._subtract_in_place(r) for s, r in zip(sigma[1:], sigma_roots[1:]))
    return ChernRelationSet(params, k, m, n, u_cap, variables, relations)
