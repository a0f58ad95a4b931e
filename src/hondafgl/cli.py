"""Command-line entry point: one `fgl` binary with one subcommand per task.

Exit codes: 0 success, 1 a verification subcommand found a mismatch or
violation (the report still goes to standard output), 2 invalid parameters,
3 the resource guard refused the computation.  Output is deterministic for a
given invocation.  The guard lives in the library and reads FGL_MAX_TERMS
from the environment at each check; a tower deeper than the y-cap allows is
refused before any level is built.
Each subcommand returns (payload, text, status): `payload` is the --json
object, its polynomials still SparsePoly values, and `text` a generator
function of the text lines, its polynomials rendered through str.  No
subcommand looks at the output form; `main` alone renders the one asked for
and writes it.
"""

from __future__ import annotations

import argparse
import sys

from . import chern as chern_mod
from . import engine, oracle, witt
from .errors import FglError, ParameterError, ResourceLimitError, shown, too_long_to_print
from .ring import SparsePoly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgl",
        description="Exact Morava K-theory formal group law toolbox: "
        "Witt polynomials, truncated F(x,y), p-series, the rational oracle, "
        "and Chern-class relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="canonical JSON output")
        fmt.add_argument("--text", action="store_true", help="human-readable output (default)")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    w = sub.add_parser("witt", help="Witt symmetric polynomials w_0..w_jmax")
    w.add_argument("--p", type=int, required=True, help="prime")
    w.add_argument("--jmax", type=int, required=True, help="largest index to compute")
    w.add_argument("--mod-p", action="store_true", help="reduce coefficients mod p")
    add_common(w)

    c = sub.add_parser("compute", help="F(x,y) as a polynomial modulo y^(q^level)")
    _add_params(c)
    c.add_argument("--level", type=int, required=True, help="truncation level n")
    c.add_argument("--coeff-table", action="store_true", help="also list A_l(x) with F = sum A_l(x) y^l")
    c.add_argument("--verify-degree-bound", action="store_true", help="check x-degree <= (pq)^m wherever y-degree < q^m")
    c.add_argument("--regrade", action="store_true", help="also list the reconstructed v_s exponent of every term")
    add_common(c)

    ps = sub.add_parser("pseries", help="[p^k](x) from the computed tower")
    _add_params(ps)
    ps.add_argument("--level", type=int, required=True, help="tower level n (result valid below x^(q^n))")
    ps.add_argument("--k", type=int, required=True, help="iterate: [p^k]")
    add_common(ps)

    o = sub.add_parser("oracle", help="Honda FGL over Q via logarithm reversion (accepts s = 1)")
    _add_params(o)
    o.add_argument("--degree", type=int, required=True, help="exclusive total-degree bound D")
    o.add_argument("--check-associativity", action="store_true", help="verify F(F(x,y),z) = F(x,F(y,z)) mod degree")
    o.add_argument("--check-pseries", action="store_true", help="verify [p](x) = x^(p^s) mod p, mod degree")
    add_common(o)

    v = sub.add_parser("verify", help="compare engine tower against the oracle; exit 1 on mismatch")
    _add_params(v)
    v.add_argument("--level", type=int, required=True, help="tower level n")
    v.add_argument(
        "--degree",
        type=int,
        default=None,
        help="oracle total-degree bound D (default max(p^s + 1, q^level), so the overlap is nonvacuous)",
    )
    add_common(v)

    ch = sub.add_parser("chern", help="relations sigma_i(F(x_1,u),..) - sigma_i(x_1,..) over F_p[u]/u^(p^(ks))")
    _add_params(ch)
    ch.add_argument("--k", type=int, required=True, help="cyclic order exponent: m = p^k roots")
    add_common(ch)

    return parser


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--s", type=int, required=True, help="height (s > 1 except for oracle)")


def _cmd_witt(args):
    family = witt.witt_family(args.p, args.jmax)
    polys = witt.witt_mod_p(family) if args.mod_p else family.polys
    payload = {"p": args.p, "jmax": args.jmax, "mod_p": args.mod_p, "polys": polys}

    def text():
        yield f"# witt p={args.p} jmax={args.jmax} ring={f'F_{args.p}' if args.mod_p else 'Z'}"
        for j, w in enumerate(polys):
            yield f"w_{j} = {w}"

    return payload, text, 0


def _cmd_compute(args):
    params = engine.FglParams(args.p, args.s)
    f = engine.build_tower(params, args.level)[-1]
    payload = {"p": params.p, "s": params.s, "q": params.q, "level": f.level, "y_cap": f.y_cap, "poly": f.poly}
    if args.coeff_table:
        table = sorted(engine.coefficient_table(f).items())
        payload["coeff_table"] = [{"l": l, "poly": a} for l, a in table]
    report = engine.verify_degree_bound(f) if args.verify_degree_bound else None
    if args.verify_degree_bound:
        windows = sorted(report.windows.items())
        payload["degree_bound"] = {
            "passed": report.passed,
            "violations": [list(v) for v in report.violations],
            "windows": [{"m": m, "max_x": mx, "bound": bd} for m, (mx, bd) in windows],
        }
    if args.regrade:
        regrade = sorted(engine.vs_regrade(f).items())
        payload["regrade"] = [{"e": [i, j], "vs": e} for (i, j), e in regrade]

    def text():
        yield f"# fgl p={params.p} s={params.s} q={params.q} level={f.level} y_cap={f.y_cap}"
        yield f.poly
        if args.coeff_table:
            yield ""
            yield from (f"A_{l} = {a}" for l, a in table)
        if args.verify_degree_bound:
            passed = "; ".join(f"m={m}: max x-exponent {mx} <= {bd}" for m, (mx, bd) in windows)
            failed = ", ".join(f"x^{i}*y^{j} in window m={m}" for i, j, m in report.violations)
            yield ""
            yield f"degree bound: pass ({passed})" if report.passed else f"degree bound: FAIL ({failed})"
        if args.regrade:
            yield ""
            yield "v_s exponents:"
            yield from (f"  x^{i}*y^{j}: {e}" for (i, j), e in regrade)

    return payload, text, 0 if report is None or report.passed else 1


def _cmd_pseries(args):
    params = engine.FglParams(args.p, args.s)
    if too_long_to_print(params.p, args.k):
        raise ParameterError(f"k = {shown(args.k)} is too large: p^k has more digits than can be printed")
    series = engine.p_series(engine.build_tower(params, args.level), args.k)
    multiplier = params.p**args.k
    payload = {"p": params.p, "s": params.s, "q": params.q, "level": args.level, "k": args.k}
    payload |= {"multiplier": multiplier, "valid_below": series.valid_below, "poly": series.poly}

    def text():
        yield (
            f"# pseries p={params.p} s={params.s} level={args.level} k={args.k} "
            f"multiplier={multiplier} valid_below=x^{series.valid_below}"
        )
        yield f"[{multiplier}](x) = {series.poly}"

    return payload, text, 0


def _cmd_oracle(args):
    params = engine.FglParams(args.p, args.s)
    orc = oracle.oracle_fgl(params, args.degree)
    checks = {}
    if args.check_associativity:
        checks["associativity"] = oracle.check_associativity(orc).ok
    if args.check_pseries:
        exponent = params.p**params.s
        want = {(exponent,): 1} if exponent < args.degree else {}
        checks["pseries"] = dict(oracle.oracle_p_series(orc, 1).terms) == want
    payload = {"p": params.p, "s": params.s, "degree": args.degree}
    payload |= {"poly_mod_p": orc.poly_mod_p, "poly_rational": orc.poly_rational}
    if checks:
        payload["checks"] = checks

    def text():
        yield f"# oracle p={params.p} s={params.s} degree={args.degree}"
        yield f"F mod p = {orc.poly_mod_p}"
        for name, ok in checks.items():
            yield f"check {name}: {'pass' if ok else 'FAIL'}"

    return payload, text, 0 if all(checks.values()) else 1


def _cmd_verify(args):
    params = engine.FglParams(args.p, args.s)
    tower = engine.build_tower(params, args.level)
    degree = args.degree
    if degree is None:
        degree = oracle.default_compare_degree(params, args.level)
    report = oracle.compare(tower[-1], oracle.oracle_fgl(params, degree))
    payload = {"p": params.p, "s": params.s, "level": args.level, "degree": degree, "ok": report.ok}
    payload["mismatches"] = [
        {"e": [i, j], "engine": str(ec), "oracle": str(oc)} for i, j, ec, oc in report.mismatches
    ]

    def text():
        yield f"# verify p={params.p} s={params.s} level={args.level} degree={degree}"
        yield report.summary()

    return payload, text, 0 if report.ok else 1


def _cmd_chern(args):
    rels = chern_mod.relation_set(engine.FglParams(args.p, args.s), args.k)
    payload = {"p": args.p, "s": args.s, "k": rels.k, "m": rels.m, "level": rels.level, "u_cap": rels.u_cap}
    payload["relations"] = [{"i": i, "poly": r} for i, r in enumerate(rels.relations, start=1)]

    def text():
        yield f"# chern p={args.p} s={args.s} k={rels.k} m={rels.m} level={rels.level} u_cap={rels.u_cap}"
        for i, r in enumerate(rels.relations, start=1):
            yield f"relation_{i} = {r}"

    return payload, text, 0


_COMMANDS = {
    "witt": _cmd_witt,
    "compute": _cmd_compute,
    "pseries": _cmd_pseries,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "chern": _cmd_chern,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, status = _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"fgl: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"fgl: resource guard: {exc}", file=sys.stderr)
        return 3
    except FglError as exc:
        print(f"fgl: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json  # only --json uses it; a text run does not load it

        lines = [json.dumps(payload, separators=(",", ":"), default=SparsePoly.to_json_dict) + "\n"]
    else:
        # written one at a time, so no more than one line's text is held
        lines = (f"{line}\n" for line in text())
    if not args.out:
        sys.stdout.writelines(lines)
        return status
    try:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        print(f"fgl: invalid parameters: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return status


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
