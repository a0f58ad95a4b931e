import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

import hondafgl
from hondafgl.chern import relation_set
from hondafgl.cli import main
from hondafgl.engine import FglParams, build_tower
from hondafgl.errors import too_long_to_print


# the directory this hondafgl is imported from, for the subprocess tests
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hondafgl.__file__)))


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_compute_text(capsys):
    status, out, _ = run_cli(capsys, "compute", "--p", "2", "--s", "2", "--level", "2", "--text")
    assert status == 0
    assert out == "# fgl p=2 s=2 q=2 level=2 y_cap=4\nx + y + x^2*y^2\n"


def test_compute_rejects_height_one(capsys):
    status, out, err = run_cli(capsys, "compute", "--p", "2", "--s", "1", "--level", "2")
    assert status == 2
    assert not out
    assert "s > 1" in err


def test_compute_rejects_composite_p(capsys):
    status, _, err = run_cli(capsys, "compute", "--p", "6", "--s", "2", "--level", "2")
    assert status == 2
    assert "prime" in err


def test_compute_json_round_trips(capsys):
    status, out, _ = run_cli(capsys, "compute", "--p", "3", "--s", "2", "--level", "2", "--json")
    assert status == 0
    payload = json.loads(out)
    assert (payload["p"], payload["s"], payload["q"]) == (3, 2, 3)
    assert payload["y_cap"] == 9
    assert payload["poly"] == build_tower(FglParams(3, 2), 2)[-1].poly.to_json_dict()


def test_compute_optional_sections(capsys):
    status, out, _ = run_cli(
        capsys,
        "compute", "--p", "2", "--s", "2", "--level", "2",
        "--coeff-table", "--verify-degree-bound", "--regrade",
    )
    assert status == 0
    assert "A_0 = x" in out
    assert "A_1 = 1" in out
    assert "A_2 = x^2" in out
    assert "A_3 = 0" in out
    assert "degree bound: pass" in out
    assert "x^2*y^2: 1" in out


def test_witt_text(capsys):
    status, out, _ = run_cli(capsys, "witt", "--p", "2", "--jmax", "2")
    assert status == 0
    assert out.splitlines() == [
        "# witt p=2 jmax=2 ring=Z",
        "w_0 = x + y",
        "w_1 = -x*y",
        "w_2 = -x^3*y - 2*x^2*y^2 - x*y^3",
    ]


def test_witt_mod_p_json(capsys):
    status, out, _ = run_cli(capsys, "witt", "--p", "2", "--jmax", "2", "--mod-p", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["mod_p"] is True
    assert payload["polys"][2]["terms"] == [{"e": [3, 1], "c": "1"}, {"e": [1, 3], "c": "1"}]


def test_pseries(capsys):
    status, out, _ = run_cli(capsys, "pseries", "--p", "2", "--s", "2", "--level", "3", "--k", "1")
    assert status == 0
    assert "[2](x) = x^4" in out
    assert "valid_below=x^8" in out


def test_verify_ok(capsys):
    status, out, _ = run_cli(capsys, "verify", "--p", "2", "--s", "2", "--level", "3", "--degree", "9")
    assert status == 0
    assert "agree" in out


def test_verify_default_degree(capsys):
    status, out, _ = run_cli(capsys, "verify", "--p", "3", "--s", "2", "--level", "2")
    assert status == 0
    assert "degree=10" in out


def test_oracle_accepts_height_one(capsys):
    status, out, _ = run_cli(capsys, "oracle", "--p", "2", "--s", "1", "--degree", "5", "--check-pseries")
    assert status == 0
    assert "check pseries: pass" in out


def test_oracle_checks(capsys):
    status, out, _ = run_cli(
        capsys,
        "oracle", "--p", "2", "--s", "2", "--degree", "8",
        "--check-associativity", "--check-pseries",
    )
    assert status == 0
    assert "check associativity: pass" in out
    assert "check pseries: pass" in out


def test_chern_json_schema(capsys):
    status, out, _ = run_cli(capsys, "chern", "--p", "2", "--s", "2", "--k", "1", "--json")
    assert status == 0
    payload = json.loads(out)
    assert {"p", "s", "k", "m", "level", "u_cap", "relations"} <= set(payload)
    assert payload["m"] == 2 and payload["u_cap"] == 4
    assert [r["i"] for r in payload["relations"]] == [1, 2]
    first = payload["relations"][0]["poly"]
    assert first["vars"] == ["x1", "x2", "u"]
    assert first["terms"] == [{"e": [2, 0, 2], "c": "1"}, {"e": [0, 2, 2], "c": "1"}]


def test_resource_guard_exit_code(capsys):
    # q = 25 needs y-exponents up to 25^3 at level 3, beyond the default cap
    status, _, err = run_cli(capsys, "compute", "--p", "5", "--s", "3", "--level", "3")
    assert status == 3
    assert "guard" in err


def test_env_override_tightens_guard(capsys, monkeypatch):
    monkeypatch.setenv("FGL_MAX_TERMS", "4")
    status, _, err = run_cli(capsys, "compute", "--p", "2", "--s", "2", "--level", "3")
    assert status == 3
    assert "8" in err  # the projected y-cap
    # a level-1 tower extends nothing, so no limit refuses it
    for limit in ("1", "0", "-1"):
        monkeypatch.setenv("FGL_MAX_TERMS", limit)
        status, _, _ = run_cli(capsys, "compute", "--p", "2", "--s", "2", "--level", "1")
        assert status == 0


def test_env_override_witt_guard(capsys, monkeypatch):
    monkeypatch.setenv("FGL_MAX_TERMS", "8")
    status, _, _ = run_cli(capsys, "witt", "--p", "2", "--jmax", "4")
    assert status == 3


@pytest.mark.parametrize(
    "env,argv,projected,limit",
    [
        (None, "compute --p 5 --s 3 --level 3", 25**3, 10**4),  # the y-cap
        (None, "witt --p 2 --jmax 21", 2**21, 10**6),  # the Witt degree
        ("5", "chern --p 2 --s 2 --k 1", 2 * 3, 5),  # y-cap 4 passes, m * |P_2| trips
    ],
)
def test_each_guard_site_refuses(capsys, monkeypatch, env, argv, projected, limit):
    if env is not None:
        monkeypatch.setenv("FGL_MAX_TERMS", env)
    status, out, err = run_cli(capsys, *argv.split())
    assert status == 3
    assert not out
    assert len(err.splitlines()) == 1
    assert err.startswith("fgl: resource guard: ")
    assert f" {projected}, beyond the limit {limit}\n" in err


def test_deep_tower_refused_before_any_level_is_built(capsys, monkeypatch):
    import hondafgl.engine as eng

    def no_extend(tower):
        raise AssertionError("a level was built")

    monkeypatch.setattr(eng, "extend", no_extend)
    status, out, err = run_cli(capsys, "compute", "--p", "5", "--s", "2", "--level", "9")
    assert status == 3
    assert not out
    assert "y-cap" in err


@pytest.mark.parametrize(
    "argv,status,err",
    [
        # p^jmax has 6,021 digits, more than int-to-str converts (4,300 by default)
        ("witt --p 2 --jmax 20000", 3, "the degree p^jmax of w_20000 is 2^20000, beyond the limit 1000000"),
        # 3^(10^8) alone takes minutes to compute
        ("witt --p 3 --jmax 100000000", 3, "the degree p^jmax of w_100000000 is 3^100000000, beyond the limit 1000000"),
        ("pseries --p 2 --s 2 --level 3 --k 14285", 2, "k = 14285 is too large: p^k has more digits than can be printed"),
        ("pseries --p 2 --s 2 --level 3 --k 100000 --json", 2, "k = 100000 is too large: p^k has more digits than can be printed"),
        # level 2 * 10^9; neither 2^(10^9) nor 2^(2 * 10^9) is computed
        ("chern --p 2 --s 2 --k 1000000000", 3, "the y-cap of level 14 is 16384, beyond the limit 10000"),
    ],
)
def test_huge_powers_refused_at_once(capsys, monkeypatch, argv, status, err):
    import hondafgl.engine as eng

    def no_extend(tower):
        raise AssertionError("a level was built")

    monkeypatch.setattr(eng, "extend", no_extend)
    start = time.perf_counter()
    got = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 2
    kind = "resource guard" if status == 3 else "invalid parameters"
    assert got == (status, "", f"fgl: {kind}: {err}\n")


@pytest.mark.parametrize(
    "argv,q",
    [
        # p - 1 diagonal substitutions: 7.9 s, and past 15 s at p = 1000003
        ("pseries --p 100003 --s 2 --level 1 --k 1", 100003),
        # one row A_l = 0 per l < q: 12.9 MB of them
        ("compute --p 1000003 --s 2 --level 1 --coeff-table", 1000003),
    ],
)
def test_level_one_y_cap_is_guarded_where_read(capsys, argv, q):
    start = time.perf_counter()
    got = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert got == (3, "", f"fgl: resource guard: the y-cap of level 1 is {q}, beyond the limit 10000\n")
    # level 1 itself is still built without a guard
    got = run_cli(capsys, "compute", "--p", str(q), "--s", "2", "--level", "1")
    assert got == (0, f"# fgl p={q} s=2 q={q} level=1 y_cap={q}\nx + y\n", "")


@pytest.mark.parametrize(
    "argv,status,err",
    [
        ("pseries --p 2 --s 2 --level 8 --k -1", 2, "k must be >= 0, got -1"),
        ("verify --p 2 --s 2 --level 8 --degree 1", 2, "degree bound must be >= 2, got 1"),
        # 0 is a bad degree, not a missing one: it must not fall to the default
        ("verify --p 2 --s 2 --level 8 --degree 0", 2, "degree bound must be >= 2, got 0"),
        ("verify --p 2 --s 2 --level 8 --degree -5", 2, "degree bound must be >= 2, got -5"),
        ("verify --p 2 --s 2 --level 8 --degree 1000000", 3, "the total degree D of the oracle is 1000000, beyond the limit 10000"),
        # the tower would be refused too; the parameter is checked first
        ("verify --p 2 --s 2 --level 30 --degree 1", 2, "degree bound must be >= 2, got 1"),
        ("pseries --p 2 --s 2 --level 30 --k -1", 2, "k must be >= 0, got -1"),
    ],
)
def test_bad_parameters_refused_before_the_tower(capsys, monkeypatch, argv, status, err):
    import hondafgl.engine as eng

    def no_tower(params, level):
        raise AssertionError("a tower was built")

    monkeypatch.setattr(eng, "build_tower", no_tower)
    kind = "resource guard" if status == 3 else "invalid parameters"
    assert run_cli(capsys, *argv.split()) == (status, "", f"fgl: {kind}: {err}\n")


def test_largest_printable_multiplier(capsys):
    status, out, err = run_cli(capsys, "pseries", "--p", "2", "--s", "2", "--level", "3", "--k", "14284")
    assert (status, err) == (0, "")
    assert f" multiplier={2**14284} " in out


@pytest.mark.parametrize("limit", [640, 4300])
@pytest.mark.parametrize("p", [2, 3, 7, 1_000_003])
def test_too_long_to_print_is_exact_at_the_threshold(p, limit):
    # the float estimate decides only away from the limit; near it the
    # answer must be exactly p^k >= 10^limit, on both sides
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        k0 = int(limit / math.log10(p))
        ks = range(k0 - 3, k0 + 4)
        got = [too_long_to_print(p, k) for k in ks]
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == [p**k >= 10**limit for k in ks]
    assert got[0] is False and got[-1] is True


@pytest.mark.parametrize(
    "argv,status,err",
    [
        # D = 10^6 and the default D = 2^20 + 1 both ran past 10 s before the oracle was guarded
        ("oracle --p 2 --s 2 --degree 1000000", 3, "the total degree D of the oracle is 1000000, beyond the limit 10000"),
        ("verify --p 2 --s 20 --level 1", 3, "the total degree D of the oracle exceeds p^s, which is 1048576, beyond the limit 10000"),
        # past 30 digits a number is named as a power, or else by its digit count
        ("witt --p 2 --jmax 14000", 3, "the degree p^jmax of w_14000 is 2^14000, beyond the limit 1000000"),
        ("oracle --p 2 --s 2 --degree HUGE", 3, "the total degree D of the oracle is a number of 4000 digits, beyond the limit 10000"),
        ("oracle --p 2 --s 2 --degree -HUGE", 2, "degree bound must be >= 2, got a negative number of 4000 digits"),
        ("compute --p -HUGE --s 2 --level 1", 2, "p must be prime, got a negative number of 4000 digits"),
        ("compute --p 2 --s 20000 --level 2", 3, "the y-cap of level 2 is 2^39998, beyond the limit 10000"),
        # a huge s: neither the y-cap q^2, nor the default D > p^s, nor the log's x^(p^s) is computed
        ("compute --p 2 --s HUGE --level 2", 3, "the y-cap of level 2 is 2^a number of 4000 digits, beyond the limit 10000"),
        # at level 1 no y-cap is projected, but q = p^(s-1) is printed, or raised to the level
        ("compute --p 2 --s HUGE --level 1", 3, "the y-cap of level 1 is 2^a number of 3999 digits, beyond the limit 10000"),
        ("pseries --p 2 --s HUGE --level 1 --k 1", 3, "the y-cap of level 1 is 2^a number of 3999 digits, beyond the limit 10000"),
        ("verify --p 2 --s HUGE --level 1", 3, "the total degree D of the oracle exceeds p^s, which is 2^a number of 4000 digits, beyond the limit 10000"),
        ("oracle --p 2 --s HUGE --degree 5", 3, "the exponent p^s of the Honda logarithm is 2^a number of 4000 digits, beyond the limit 10000"),
        # k and jmax past 10^308 used to overflow a float in too_long_to_print
        ("pseries --p 2 --s 2 --level 3 --k HUGE", 2, "k = a number of 4000 digits is too large: p^k has more digits than can be printed"),
        ("witt --p 2 --jmax HUGE", 3, "the degree p^jmax of w_a number of 4000 digits is 2^a number of 4000 digits, beyond the limit 1000000"),
        # primality is decided exactly only below 3317044064679887385961981
        ("compute --p HUGE --s 2 --level 1", 2, "p = a number of 4000 digits is too large: primality is decided only below 3317044064679887385961981"),
        ("witt --p 3317044064679887385961981 --jmax 0", 2, "p = 3317044064679887385961981 is too large: primality is decided only below 3317044064679887385961981"),
    ],
)
def test_refusal_is_one_short_line(capsys, argv, status, err):
    # HUGE stands for 10^3999, as many digits as int() parses from text
    argv = argv.replace("HUGE", "1" + "0" * 3999)
    start = time.perf_counter()
    got = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 2
    kind = "resource guard" if status == 3 else "invalid parameters"
    assert got == (status, "", f"fgl: {kind}: {err}\n")
    assert len(got[2]) < 200


def test_large_prime_accepted_at_once(capsys):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "witt", "--p", str(2**61 - 1), "--jmax", "0")
    assert time.perf_counter() - start < 2
    assert (status, err) == (0, "")
    assert out.splitlines()[1] == "w_0 = x + y"


@pytest.mark.parametrize(
    "argv,expected",
    [
        ("compute --p 2 --s 2 --level 1", 2),
        ("compute --p 2 --s 2 --level 2", 2),
        ("witt --p 2 --jmax 2", 2),
        ("witt --p 2 --jmax 20000", 2),
        ("chern --p 2 --s 2 --k 1", 2),
        ("oracle --p 2 --s 2 --degree 5", 2),
    ],
)
def test_malformed_override(capsys, monkeypatch, argv, expected):
    # a long value is named by its start and length, so the line stays short
    for value, got in (("abc", "'abc'"), ("a" * 5000, f"'{'a' * 20}'... (5000 characters)")):
        monkeypatch.setenv("FGL_MAX_TERMS", value)
        status, out, err = run_cli(capsys, *argv.split())
        assert status == expected
        if expected:
            assert not out
            assert err == f"fgl: invalid parameters: FGL_MAX_TERMS must be an integer, got {got}\n"
            assert len(err) < 200


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    status, out, _ = run_cli(
        capsys, "compute", "--p", "2", "--s", "2", "--level", "2", "--out", str(target)
    )
    assert status == 0
    assert not out
    assert target.read_text() == "# fgl p=2 s=2 q=2 level=2 y_cap=4\nx + y + x^2*y^2\n"


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a directory, a file under a missing directory, and the empty path
    for target in (tmp_path, tmp_path / "missing" / "out.txt", ""):
        status, out, err = run_cli(
            capsys, "compute", "--p", "2", "--s", "2", "--level", "2", "--out", str(target)
        )
        assert status == 2
        assert not out
        assert err.startswith(f"fgl: invalid parameters: cannot write --out {target}")
        assert len(err.splitlines()) == 1


def test_out_write_error_is_an_error_not_a_parameter(monkeypatch, capsys):
    # the file opens, then a write fails as on a full disk: one stderr line,
    # exit 2, and the file is closed
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    opened = []

    def full_open(*args):
        opened.append(Full())
        return opened[-1]

    monkeypatch.setattr(hondafgl.cli, "open", full_open, raising=False)
    status, out, err = run_cli(capsys, "compute", "--p", "2", "--s", "2", "--level", "2", "--out", "full.txt")
    assert status == 2
    assert not out
    assert err == f"fgl: error: cannot write --out full.txt: {os.strerror(errno.ENOSPC)}\n"
    assert [f.closed for f in opened] == [True]


def test_closed_stdout_pipe_exits_two():
    # the reader is gone before the child writes: one stderr line, exit 2,
    # and nothing more at interpreter shutdown
    proc = subprocess.Popen(
        [sys.executable, "-m", "hondafgl", "compute", "--p", "2", "--s", "2", "--level", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "fgl: error: cannot write standard output: Broken pipe\n"


# `run()` as the `fgl` script calls it, with an atexit hook that writes the
# freeze count to the file named by its first argument
ENTRY = """\
import atexit, gc, sys

path = sys.argv.pop(1)

def report():
    with open(path, "w") as f:
        f.write(str(gc.get_freeze_count()))

atexit.register(report)
from hondafgl.cli import run
run()
"""


@pytest.mark.parametrize("argv, status, out, err", [
    ("compute --p 2 --s 2 --level 2 --json", 0, "compute-p2-s2-l2.json", None),
    ("compute --p 2", 2, None, "fgl compute: error: the following arguments are required: --s, --level"),
    ("compute --p 4 --s 2 --level 2", 2, None, "fgl: invalid parameters: p must be prime, got 4"),
    ("compute --p 2 --s 2 --level 20", 3, None,
     "fgl: resource guard: the y-cap of level 14 is 16384, beyond the limit 10000"),
])
def test_entry_point_freezes_the_heap_on_every_exit(tmp_path, argv, status, out, err):
    # the exit status, stdout and stderr of main(), and the heap frozen by the
    # time atexit runs, on success, an argparse error, a bad parameter and a
    # refusal of the guard
    frozen = tmp_path / "freeze_count"
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, str(frozen), *argv.split()], cwd=tmp_path, capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
    )
    assert proc.returncode == status
    golden = os.path.join(os.path.dirname(__file__), "golden", out) if out else os.devnull
    with open(golden, "rb") as f:
        assert proc.stdout == f.read()
    lines = proc.stderr.decode().splitlines()
    if err is None:
        assert lines == []
    elif err.startswith("fgl: "):
        assert lines == [err]
    else:  # argparse prints its usage before its one error line
        assert lines[0].startswith("usage: fgl compute") and lines[-1] == err
    assert int(frozen.read_text()) > 0


def test_library_leaves_the_collector_alone():
    # only the process entry point freezes: an import and main() do not
    # freeze the heap of the program that holds them, nor switch gc off
    probe = ("import gc; before = gc.isenabled(), gc.get_freeze_count(); "
             "import hondafgl, hondafgl.cli, hondafgl.chern, hondafgl.oracle, hondafgl.witt; "
             "print(before == (gc.isenabled(), gc.get_freeze_count()) == (True, 0))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"True\n", b"")
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (["compute", "--p", "2", "--s", "2", "--level", "2"], ["compute", "--p", "2", "--s", "2", "--level", "20"]):
        main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    with pytest.raises(SystemExit):
        main(["compute", "--p", "2"])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_stdout_write_error_returns_two(monkeypatch, capsys):
    class Broken(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Broken())
    assert main(["compute", "--p", "2", "--s", "2", "--level", "2"]) == 2
    assert capsys.readouterr().err == "fgl: error: cannot write standard output: Broken pipe\n"


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--p", "2"])
    assert exc.value.code == 2


def test_repeated_runs_identical(capsys):
    commands = [
        ["witt", "--p", "3", "--jmax", "2", "--json"],
        ["compute", "--p", "2", "--s", "2", "--level", "3", "--json", "--coeff-table"],
        ["chern", "--p", "2", "--s", "2", "--k", "1"],
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_text_output_is_written_block_by_block(monkeypatch):
    # no line's whole text is built: the largest single write to stdout is
    # one block of one relation, not the longest line (relation_7)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(len(text))

        def writelines(self, chunks):
            for chunk in chunks:
                self.write(chunk)

        def flush(self):
            pass

    relations = relation_set(FglParams(7, 2), 1).relations
    block = max(len(b) for r in relations for b in r.text_blocks())
    line = max(len(f"relation_{i} = {r}") for i, r in enumerate(relations, start=1))
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["chern", "--p", "7", "--s", "2", "--k", "1"]) == 0
    assert sum(writes) == 2_691_582
    assert max(writes) <= block < line


def test_chern_output_peak_memory():
    # the relations stay packed from the sigma maps to stdout, and are printed
    # a block of sorted keys at a time, so no map keyed by exponent tuples is
    # built: about 9.5 MiB under Python 3.10 to 3.13, against 13.8 to 14.2 MiB
    # when each sigma was unpacked and its tuples sorted for printing
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        tracemalloc.start()
        try:
            status = main(["chern", "--p", "7", "--s", "2", "--k", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 11 * 2**20
