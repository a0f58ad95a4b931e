import json
import math
import sys
import time

import pytest

from hondafgl.cli import main
from hondafgl.engine import FglParams, build_tower
from hondafgl.errors import too_long_to_print


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
    # a directory, and a file under a missing directory
    for target in (tmp_path, tmp_path / "missing" / "out.txt"):
        status, out, err = run_cli(
            capsys, "compute", "--p", "2", "--s", "2", "--level", "2", "--out", str(target)
        )
        assert status == 2
        assert not out
        assert err.startswith(f"fgl: invalid parameters: cannot write --out {target}")
        assert len(err.splitlines()) == 1


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
