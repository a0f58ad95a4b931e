"""Byte-for-byte checks of `fgl` stdout against frozen golden files.

Each file under tests/golden/ is the stdout of `python -m hondafgl <argv>`:
the first 17 entries were frozen at commit b26005e, before the CLI and the
p-series were rewritten, the next 11 at commit c37dfb6, before the resource
guards were merged into one, the next ones at commit 32d8eea, before each
subcommand returned one payload for both output forms, the next at
commit e2eb7a8, before a p^r-th power over F_p became a scaling of its
exponents, the next at commit 1dc5bf9, before the ring stopped
re-validating the results of its own arithmetic and Witt powers became one
big-int power each, the next at commit a993786, before the oracle's
reversion and composition moved from Q to Z, the next at commit
b0f1d1b, before the oracle composed E(L(u) + L(v)) by the binomial theorem,
the next at commit 16fdaaf, before the records became named tuples, the
next at commit 4426354, before `to_text` rendered in C-level passes and a sum
reduced only the addend's terms, and the last at commit 49b9098, before
`extend` bracketed the collapse ladder from the inside.  DIGESTS pins, by the
sha256 of its stdout, one more command frozen at 4426354 and one at 49b9098,
whose outputs are too large to commit.
The c37dfb6 entries are the determinism commands of test_acceptance.py and
towers deep enough to pin the ladder fold at ladder index j up to 3.  The 32d8eea entries add the forms no golden held yet and,
in FAILING, the reports of a failed check: each reaches its exit-1 branch
through one module attribute the CLI calls, patched to return the real
report with one mismatch added.  The e2eb7a8 entry is (2,2) level 7, the
deepest tower the code before it reached, in about 6 minutes on a 2-vCPU
host.  The 1dc5bf9 entries hold large negative Z coefficients (p 5, jmax 4),
the Witt family at p 7, and products in six variables (chern at p 5).  The
a993786 entries hold the oracle's large rationals (p 2, s 2, D 65), height
one (s 1, where q = p), and the deepest engine-vs-oracle overlap, (2,2)
level 6 at D 97.  The b0f1d1b entry is that overlap one level deeper, (2,2)
level 7 at D 129.  The 16fdaaf entry is (2,2) level 8, the first tower
deeper than the e2eb7a8 one.  The 4426354 entries are the text forms of the
Witt family at p 5 (large negative Z coefficients through `to_text`) and of
chern (2,3) k 2 (five variables); its digest is chern (7,2) k 1, 2.7 MB of
text in eight variables, the same digest as perfbench's.  The 49b9098 entry
is (7,2) level 4, 138 KB, which the left-bracketed ladder took about two
minutes to reach on a 2-vCPU host; its digest is (3,2) level 6, 245 KB, about
40 s there.  A change to any of
these outputs is a change of behaviour, not a refactor: the files are not to
be regenerated to make this test pass.
"""

import hashlib
from pathlib import Path

import pytest

from hondafgl import engine, oracle
from hondafgl.cli import main
from hondafgl.ring import SparsePoly

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "witt-p2-j3.txt": "witt --p 2 --jmax 3",
    "witt-p2-j3-modp.txt": "witt --p 2 --jmax 3 --mod-p",
    "witt-p3-j2.json": "witt --p 3 --jmax 2 --json",
    "compute-p2-s2-l5-all.txt": "compute --p 2 --s 2 --level 5 --coeff-table --verify-degree-bound --regrade",
    "compute-p3-s2-l3-all.json": "compute --p 3 --s 2 --level 3 --coeff-table --verify-degree-bound --regrade --json",
    "compute-p2-s3-l2.txt": "compute --p 2 --s 3 --level 2",
    "pseries-p2-s2-l5-k0.txt": "pseries --p 2 --s 2 --level 5 --k 0",
    "pseries-p2-s2-l5-k1.txt": "pseries --p 2 --s 2 --level 5 --k 1",
    "pseries-p2-s2-l5-k3.txt": "pseries --p 2 --s 2 --level 5 --k 3",
    "pseries-p3-s2-l4-k2.txt": "pseries --p 3 --s 2 --level 4 --k 2",
    "pseries-p2-s2-l5-k2.json": "pseries --p 2 --s 2 --level 5 --k 2 --json",
    "oracle-p2-s1-d9-pseries.json": "oracle --p 2 --s 1 --degree 9 --check-pseries --json",
    "oracle-p2-s2-d17-checks.txt": "oracle --p 2 --s 2 --degree 17 --check-associativity --check-pseries",
    "verify-p2-s2-l3.txt": "verify --p 2 --s 2 --level 3",
    "verify-p3-s2-l2-d19.json": "verify --p 3 --s 2 --level 2 --degree 19 --json",
    "chern-p2-s2-k1.txt": "chern --p 2 --s 2 --k 1",
    "chern-p3-s2-k1.json": "chern --p 3 --s 2 --k 1 --json",
    # frozen at c37dfb6
    "witt-p2-j4.json": "witt --p 2 --jmax 4 --json",
    "compute-p2-s2-l4-all.json": "compute --p 2 --s 2 --level 4 --json --coeff-table --verify-degree-bound --regrade",
    "verify-p3-s2-l2-d19.txt": "verify --p 3 --s 2 --level 2 --degree 19",
    "pseries-p2-s2-l3-k1.txt": "pseries --p 2 --s 2 --level 3 --k 1",
    "oracle-p3-s2-d10-checks.json": "oracle --p 3 --s 2 --degree 10 --check-associativity --check-pseries --json",
    "chern-p2-s2-k1.json": "chern --p 2 --s 2 --k 1 --json",
    "compute-p2-s2-l6-table-regrade.txt": "compute --p 2 --s 2 --level 6 --coeff-table --regrade",
    "compute-p3-s2-l4-bound.json": "compute --p 3 --s 2 --level 4 --verify-degree-bound --json",
    "compute-p2-s4-l4.txt": "compute --p 2 --s 4 --level 4",
    "pseries-p3-s2-l4-k1.json": "pseries --p 3 --s 2 --level 4 --k 1 --json",
    "chern-p2-s2-k2.txt": "chern --p 2 --s 2 --k 2",
    # frozen at 32d8eea
    "witt-p2-j3-modp.json": "witt --p 2 --jmax 3 --mod-p --json",
    "oracle-p2-s2-d17.txt": "oracle --p 2 --s 2 --degree 17",
    "oracle-p2-s2-d17.json": "oracle --p 2 --s 2 --degree 17 --json",
    "compute-p2-s2-l2.json": "compute --p 2 --s 2 --level 2 --json",
    # frozen at e2eb7a8
    "compute-p2-s2-l7.txt": "compute --p 2 --s 2 --level 7",
    # frozen at 1dc5bf9
    "witt-p5-j4.json": "witt --p 5 --jmax 4 --json",
    "witt-p7-j3.txt": "witt --p 7 --jmax 3",
    "chern-p5-s2-k1.txt": "chern --p 5 --s 2 --k 1",
    # frozen at a993786
    "oracle-p2-s2-d65.json": "oracle --p 2 --s 2 --degree 65 --json",
    "oracle-p3-s2-d40.json": "oracle --p 3 --s 2 --degree 40 --json",
    "oracle-p2-s1-d20.json": "oracle --p 2 --s 1 --degree 20 --json",
    "verify-p2-s2-l6-d97.txt": "verify --p 2 --s 2 --level 6 --degree 97",
    # frozen at b0f1d1b
    "verify-p2-s2-l7-d129.txt": "verify --p 2 --s 2 --level 7 --degree 129",
    # frozen at 16fdaaf
    "compute-p2-s2-l8.txt": "compute --p 2 --s 2 --level 8",
    # frozen at 4426354
    "chern-p2-s3-k2.txt": "chern --p 2 --s 3 --k 2",
    "witt-p5-j4.txt": "witt --p 5 --jmax 4",
    # frozen at 49b9098
    "compute-p7-s2-l4.txt": "compute --p 7 --s 2 --level 4",
}

# argv -> sha256 of its stdout, frozen at 4426354 and at 49b9098
DIGESTS = {
    "chern --p 7 --s 2 --k 1": "c354e454867badfe693f8cf96b8789eb97d20734b528dcdaa632df1677359ec8",
    "compute --p 3 --s 2 --level 6": "1f7536cbb63f5f0b3f2839cd18646966d9639321c33892375bc5bed7efe3ab10",
}

# frozen at 32d8eea; these exit 1: (argv, module, attribute, report field, value)
FAILING = {
    "compute-p2-s2-l2-bound-fail.txt": (
        "compute --p 2 --s 2 --level 2 --verify-degree-bound",
        engine, "verify_degree_bound", "violations", ((99, 0, 1),),
    ),
    "compute-p2-s2-l2-bound-fail.json": (
        "compute --p 2 --s 2 --level 2 --verify-degree-bound --json",
        engine, "verify_degree_bound", "violations", ((99, 0, 1),),
    ),
    "verify-p2-s2-l2-mismatch.txt": (
        "verify --p 2 --s 2 --level 2",
        oracle, "compare", "mismatches", ((1, 1, 1, 0),),
    ),
    "verify-p2-s2-l2-mismatch.json": (
        "verify --p 2 --s 2 --level 2 --json",
        oracle, "compare", "mismatches", ((1, 1, 1, 0),),
    ),
    "oracle-p2-s2-d6-assoc-fail.txt": (
        "oracle --p 2 --s 2 --degree 6 --check-associativity --check-pseries",
        oracle, "check_associativity", "mismatches", ((1, 1, 1),),
    ),
}


def run_golden(name, monkeypatch, capsys):
    """Exit status, stdout and stderr of the command golden file `name` holds."""
    if name in FAILING:
        argv, module, attr, field, value = FAILING[name]
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a: real(*a)._replace(**{field: value}))
    else:
        argv = GOLDEN[name]
    status = main(argv.split())
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_every_golden_file_is_listed():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted([*GOLDEN, *FAILING])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    status, out, err = run_golden(name, monkeypatch, capsys)
    assert status == 0, err
    assert err == ""
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_stdout_matches_digest(argv, capsys):
    status = main(argv.split())
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DIGESTS[argv]


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failed_check_report_matches_golden(name, capsys, monkeypatch):
    status, out, err = run_golden(name, monkeypatch, capsys)
    assert status == 1
    assert err == ""
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted([*GOLDEN, *FAILING]))
def test_run_renders_only_the_form_it_prints(name, capsys, monkeypatch):
    other = "to_text" if name.endswith(".json") else "to_json_dict"

    def refuse(self):
        raise AssertionError(f"{other} called by a run that prints {name.rpartition('.')[2]}")

    monkeypatch.setattr(SparsePoly, other, refuse)
    status, out, err = run_golden(name, monkeypatch, capsys)
    assert (status, err) == (1 if name in FAILING else 0, "")
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_json_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "out.json"
    status = main(["compute", "--p", "2", "--s", "2", "--level", "2", "--json", "--out", str(target)])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (0, "", "")
    assert target.read_bytes() == (GOLDEN_DIR / "compute-p2-s2-l2.json").read_bytes()
