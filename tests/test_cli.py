import json
import time

import pytest

from hondafgl.cli import main
from hondafgl.engine import FglParams, build_tower
from hondafgl.ring import SparsePoly


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
    poly = SparsePoly.from_json_dict(payload["poly"])
    assert poly == build_tower(FglParams(3, 2), 2)[-1].poly


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
    w2 = SparsePoly.from_json_dict(payload["polys"][2])
    assert w2.to_text() == "x^3*y + x*y^3"


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
    first = SparsePoly.from_json_dict(payload["relations"][0]["poly"])
    assert first.to_text() == "x1^2*u^2 + x2^2*u^2"


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


@pytest.mark.parametrize(
    "argv,expected",
    [
        ("compute --p 2 --s 2 --level 1", 2),
        ("compute --p 2 --s 2 --level 2", 2),
        ("witt --p 2 --jmax 2", 2),
        ("witt --p 2 --jmax 20000", 2),
        ("chern --p 2 --s 2 --k 1", 2),
        ("oracle --p 2 --s 2 --degree 5", 0),  # the oracle has no guard
    ],
)
def test_malformed_override(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("FGL_MAX_TERMS", "abc")
    status, out, err = run_cli(capsys, *argv.split())
    assert status == expected
    if expected:
        assert not out
        assert err == "fgl: invalid parameters: FGL_MAX_TERMS must be an integer, got 'abc'\n"


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
