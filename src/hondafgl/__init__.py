"""Exact computation of the mod-p Morava K-theory formal group law.

The engine computes F(x, y) over F_p as a polynomial modulo y^(q^n)
(q = p^(s-1), height s > 1) through the Witt-polynomial collapse ladder; an
independent rational-logarithm oracle cross-checks every output; on top of
the engine sit the p-series, the degree-bound verifier, v_s regrading, and
the Chern-class relation generator over F_p[u]/u^(p^(ks)).
"""

from .chern import ChernRelationSet, relation_set, required_level
from .engine import (
    DegreeBoundReport,
    FglParams,
    PSeries,
    TruncatedFgl,
    build_tower,
    coefficient_table,
    extend,
    initial_fgl,
    p_series,
    verify_degree_bound,
    vs_regrade,
)
from .errors import (
    FglError,
    GradingError,
    IntegralityError,
    InternalConsistencyError,
    ParameterError,
    ResourceLimitError,
    StructuralError,
)
from .oracle import (
    AssociativityReport,
    CompareReport,
    OracleFgl,
    check_associativity,
    compare,
    default_compare_degree,
    honda_log,
    oracle_fgl,
    oracle_p_series,
    revert_series,
)
from .ring import (
    INTEGERS,
    NO_TRUNCATION,
    RATIONALS,
    Domain,
    SparsePoly,
    TruncationPolicy,
    elementary_symmetric_all,
    prime_field,
)
from .witt import WittFamily, witt_family, witt_mod_p

__version__ = "0.1.0"
