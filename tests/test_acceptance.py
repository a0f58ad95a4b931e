"""End-to-end acceptance checks, one test per criterion.

Every equality below is exact (tolerance zero): the objects are polynomials
over F_p, Z, or Q and the expected values are either forced identities or
were computed independently (brute-force expansion, the rational-logarithm
oracle, or hand calculation frozen into the test).  Run with `pytest -s` to
see one pass/fail line per criterion with its runtime.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import hondafgl
from hondafgl.chern import relation_set
from hondafgl.engine import (
    FglParams,
    build_tower,
    p_series,
    verify_degree_bound,
)
from hondafgl.oracle import (
    check_associativity,
    compare,
    oracle_fgl,
    oracle_p_series,
)
from hondafgl.ring import SparsePoly, TruncationPolicy, prime_field
from hondafgl.witt import witt_family, witt_mod_p

XY = ("x", "y")


@contextmanager
def criterion(number, limit_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"criterion {number:2d}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_01_base_cases():
    with criterion(1, 6.0, "P_1 = x + y and P_2 = x + y + w1^q for p in {2,3,5}, s in {2,3}"):
        for p in (2, 3, 5):
            for s in (2, 3):
                start = time.perf_counter()
                params = FglParams(p, s)
                tower = build_tower(params, 2)
                x_plus_y = SparsePoly(XY, prime_field(p), {(1, 0): 1, (0, 1): 1})
                assert tower[0].poly == x_plus_y
                w1_bar = witt_mod_p(witt_family(p, 1))[1]
                assert tower[1].poly == x_plus_y + w1_bar.pow(params.q)
                assert time.perf_counter() - start < 1.0


def test_criterion_02_witt_certificate():
    with criterion(2, 10.0, "Witt defining identity exact over Z: p in {2,3,5}, jmax 3 (4 at p=2)"):
        for p, jmax in ((2, 4), (3, 3), (5, 3)):
            family = witt_family(p, jmax)
            for n in range(jmax + 1):
                lhs, rhs = family.identity_sides(n)
                assert lhs == rhs, f"identity fails at p={p}, n={n}"


ORACLE_GRID = [(2, 2, 3, 17), (2, 3, 2, 17), (3, 2, 2, 19)]


def test_criterion_03_oracle_equivalence():
    with criterion(3, 180.0, "engine equals oracle termwise on (p,s,n,D) in "
                             "{(2,2,3,17), (2,3,2,17), (3,2,2,19)}"):
        for p, s, level, degree in ORACLE_GRID:
            start = time.perf_counter()
            params = FglParams(p, s)
            tower = build_tower(params, level)
            report = compare(tower[-1], oracle_fgl(params, degree))
            assert report.ok, report.summary()
            assert time.perf_counter() - start < 60.0


def test_criterion_04_degree_bound():
    with criterion(4, 60.0, "x-degree <= (pq)^m wherever y-degree < q^m, all levels, "
                            "all instances plus (2,2) to level 4"):
        instances = [(p, s, level) for p, s, level, _ in ORACLE_GRID] + [(2, 2, 4)]
        for p, s, level in instances:
            for f in build_tower(FglParams(p, s), level):
                report = verify_degree_bound(f)
                assert report.passed, report.violations


def test_criterion_05_p_series():
    with criterion(5, 60.0, "[2](x) = x^4 mod x^8 at (2,2,3); [3](x) = x^9 at (3,2,3); "
                            "oracle p-series independently"):
        t22 = build_tower(FglParams(2, 2), 3)
        s22 = p_series(t22, 1)
        assert s22.valid_below == 8
        assert s22.poly.terms == {(4,): 1}

        # q^n > 9 first holds at n = 3
        t32 = build_tower(FglParams(3, 2), 3)
        s32 = p_series(t32, 1)
        assert s32.valid_below == 27
        assert s32.poly.terms == {(9,): 1}

        for p, s, degree in ((2, 2, 9), (3, 2, 10)):
            orc = oracle_fgl(FglParams(p, s), degree)
            assert oracle_p_series(orc, 1).terms == {(p**s,): 1}


def test_criterion_06_fgl_axioms():
    with criterion(6, 120.0, "unit and commutativity on every computed P_n; oracle "
                             "associativity mod total degree 10 for (2,2) and (3,2)"):
        for p, s, level, _ in ORACLE_GRID:
            params = FglParams(p, s)
            for f in build_tower(params, level):
                terms = f.poly.terms
                cap = params.q**f.level
                assert {e: c for e, c in terms.items() if e[1] == 0} == {(1, 0): 1}
                assert {e: c for e, c in terms.items() if e[0] == 0} == {(0, 1): 1}
                # symmetry on the square both the y-cap and its mirror see
                square = {e: c for e, c in terms.items() if e[0] < cap and e[1] < cap}
                assert square == {(j, i): c for (i, j), c in square.items()}
        for p, s in ((2, 2), (3, 2)):
            report = check_associativity(oracle_fgl(FglParams(p, s), 10))
            assert report.ok, report.mismatches


def test_criterion_07_tower_consistency():
    with criterion(7, 60.0, "P_{n+1} restricted below y^(q^n) equals P_n, all instances"):
        instances = [(p, s, level) for p, s, level, _ in ORACLE_GRID] + [(2, 2, 4)]
        for p, s, level in instances:
            params = FglParams(p, s)
            tower = build_tower(params, level)
            for lower, upper in zip(tower, tower[1:]):
                cap = params.q**lower.level
                restricted = {e: c for e, c in upper.poly.terms.items() if e[1] < cap}
                assert restricted == dict(lower.poly.terms)


def test_criterion_08_grading():
    with criterion(8, 60.0, "(p^s - 1) divides (i + j - 1) for every term of every P_n"):
        instances = [(p, s, level) for p, s, level, _ in ORACLE_GRID] + [(2, 2, 4)]
        for p, s, level in instances:
            d = p**s - 1
            for f in build_tower(FglParams(p, s), level):
                assert all((i + j - 1) % d == 0 for (i, j) in f.poly.terms)


def test_criterion_09_chern_relations():
    with criterion(9, 10.0, "chern relations at (2,2,k=1): u=0 vanishing, permutation "
                            "invariance, u-cap 4, product path; [2](u) = u^4 below u^8 at n=3"):
        params = FglParams(2, 2)
        rels = relation_set(params, 1)
        assert rels.u_cap == 4
        fp = prime_field(2)
        u_index = rels.variables.index("u")
        for r in rels.relations:
            assert all(e[u_index] > 0 for e in r.terms)          # dies at u = 0
            assert all(e[u_index] < 4 for e in r.terms)          # nilpotence cap
        x1, x2, u = (SparsePoly.variable(rels.variables, fp, v) for v in rels.variables)
        for r in rels.relations:
            assert r.substitute({"x1": x2, "x2": x1, "u": u}) == r

        # independent route to the top relation: the plain product
        trunc = TruncationPolicy(4, "u")
        top = build_tower(params, rels.level)[-1].poly
        f1 = top.substitute({"x": x1, "y": u}, trunc)
        f2 = top.substitute({"x": x2, "y": u}, trunc)
        assert rels.relations[-1] == f1.mul(f2, trunc) - x1.mul(x2, trunc)

        series = p_series(build_tower(params, 3), 1)
        assert series.valid_below == 8
        assert series.poly == SparsePoly(("x",), fp, {(4,): 1})


DETERMINISM_COMMANDS = [
    ["witt", "--p", "2", "--jmax", "4", "--json"],
    ["compute", "--p", "2", "--s", "2", "--level", "4", "--json",
     "--coeff-table", "--verify-degree-bound", "--regrade"],
    ["verify", "--p", "3", "--s", "2", "--level", "2", "--degree", "19"],
    ["pseries", "--p", "2", "--s", "2", "--level", "3", "--k", "1"],
    ["oracle", "--p", "3", "--s", "2", "--degree", "10",
     "--check-associativity", "--check-pseries", "--json"],
    ["chern", "--p", "2", "--s", "2", "--k", "1", "--json"],
]


def minimal_env() -> dict[str, str]:
    """A subprocess environment with nothing of the caller's (no FGL_MAX_TERMS,
    no PYTHON* settings) except an import path that holds exactly the
    hondafgl package this test run imported."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hondafgl.__file__)))
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}


def test_criterion_10_determinism():
    with criterion(10, 120.0, "byte-identical output across repeated runs of every command"):
        for argv in DETERMINISM_COMMANDS:
            outputs = []
            for seed in ("1", "2"):  # vary hash randomization on purpose
                proc = subprocess.run(
                    [sys.executable, "-m", "hondafgl", *argv],
                    capture_output=True,
                    env={**minimal_env(), "PYTHONHASHSEED": seed},
                )
                assert proc.returncode == 0, (
                    f"fgl {' '.join(argv)} exited {proc.returncode} with PYTHONHASHSEED={seed}:\n"
                    + proc.stderr.decode(errors="replace")
                )
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], f"nondeterministic output for {argv}"


def loaded(statement):
    """The modules loaded in a fresh interpreter after `statement`; whatever
    it writes to stdout is discarded."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; sys.stderr.write(' '.join(sys.modules))"],
        capture_output=True, text=True, env=minimal_env(), check=True,
    )
    return set(proc.stderr.split())


def test_cli_import_footprint():
    # Every fgl run pays for its imports.  Importing the CLI loads neither
    # dataclasses (with the inspect, ast and dis it pulls in) nor json, which
    # only --json output needs, nor fractions (with decimal), which no
    # command needs; counted against a bare start of the same
    # interpreter, so that whatever site preloads on a host does not count.
    new = loaded("import hondafgl.cli") - loaded("pass")
    assert "hondafgl.cli" in new
    assert not new & {"dataclasses", "inspect", "json", "fractions", "decimal"}


def test_only_the_printed_rational_law_loads_fractions():
    # the oracle works in Z, and the law over Q that `fgl oracle --json`
    # prints is F over Z under the label Q: no command makes a Fraction
    def run(*argv):
        return loaded(f"from hondafgl.cli import main; assert main({list(argv)!r}) == 0")

    assert "fractions" not in loaded("pass")
    assert "fractions" not in run("verify", "--p", "2", "--s", "2", "--level", "5", "--degree", "65")
    assert "fractions" not in run("oracle", "--p", "2", "--s", "2", "--degree", "9", "--json")
    assert "fractions" not in run("oracle", "--p", "2", "--s", "2", "--degree", "9")
