"""Command-line entry point: one `fgl` binary with one subcommand per task.

Exit codes: 0 success, 1 a verification subcommand found a mismatch or
violation (the report still goes to standard output), 2 invalid parameters,
3 the resource guard refused the computation.  Output is deterministic for a
given invocation.  The guard lives in the library and reads FGL_MAX_TERMS
from the environment at each check; a tower deeper than the y-cap allows is
refused before any level is built.
Each subcommand returns its exit status with a JSON payload under --json or
text lines otherwise; `main` alone renders the result and writes it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chern as chern_mod
from . import engine, oracle, witt
from .errors import FglError, ParameterError, ResourceLimitError


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


def _cmd_witt(args) -> tuple[dict | list[str], int]:
    family = witt.witt_family(args.p, args.jmax)
    polys = witt.witt_mod_p(family) if args.mod_p else list(family.polys)
    if args.json:
        return {
            "p": args.p,
            "jmax": args.jmax,
            "mod_p": bool(args.mod_p),
            "polys": [w.to_json_dict() for w in polys],
        }, 0
    ring_name = f"F_{args.p}" if args.mod_p else "Z"
    lines = [f"# witt p={args.p} jmax={args.jmax} ring={ring_name}"]
    lines += [f"w_{j} = {w.to_text()}" for j, w in enumerate(polys)]
    return lines, 0


def _cmd_compute(args) -> tuple[dict | list[str], int]:
    params = engine.FglParams(args.p, args.s)
    f = engine.build_tower(params, args.level)[-1]
    report = engine.verify_degree_bound(f) if args.verify_degree_bound else None
    status = 1 if report is not None and not report.passed else 0
    table = engine.coefficient_table(f) if args.coeff_table else None
    regrade = engine.vs_regrade(f) if args.regrade else None

    if args.json:
        payload = {
            "p": params.p,
            "s": params.s,
            "q": params.q,
            "level": f.level,
            "y_cap": f.y_cap,
            "poly": f.poly.to_json_dict(),
        }
        if table is not None:
            payload["coeff_table"] = [
                {"l": l, "poly": a.to_json_dict()} for l, a in sorted(table.items())
            ]
        if report is not None:
            payload["degree_bound"] = _degree_bound_json(report)
        if regrade is not None:
            payload["regrade"] = [
                {"e": [i, j], "vs": e} for (i, j), e in sorted(regrade.items())
            ]
        return payload, status

    lines = [f"# fgl p={params.p} s={params.s} q={params.q} level={f.level} y_cap={f.y_cap}"]
    lines.append(f.poly.to_text())
    if table is not None:
        lines.append("")
        lines += [f"A_{l} = {a.to_text()}" for l, a in sorted(table.items())]
    if report is not None:
        lines.append("")
        lines.append(_degree_bound_text(report))
    if regrade is not None:
        lines.append("")
        lines.append("v_s exponents:")
        lines += [f"  x^{i}*y^{j}: {e}" for (i, j), e in sorted(regrade.items())]
    return lines, status


def _degree_bound_json(report: engine.DegreeBoundReport) -> dict:
    return {
        "passed": report.passed,
        "violations": [list(v) for v in report.violations],
        "windows": [
            {"m": m, "max_x": mx, "bound": bd} for m, (mx, bd) in sorted(report.windows.items())
        ],
    }


def _degree_bound_text(report: engine.DegreeBoundReport) -> str:
    windows = "; ".join(
        f"m={m}: max x-exponent {mx} <= {bd}" for m, (mx, bd) in sorted(report.windows.items())
    )
    if report.passed:
        return f"degree bound: pass ({windows})"
    bad = ", ".join(f"x^{i}*y^{j} in window m={m}" for i, j, m in report.violations)
    return f"degree bound: FAIL ({bad})"


def _cmd_pseries(args) -> tuple[dict | list[str], int]:
    params = engine.FglParams(args.p, args.s)
    series = engine.p_series(engine.build_tower(params, args.level), args.k)
    multiplier = params.p**args.k
    if args.json:
        return {
            "p": params.p,
            "s": params.s,
            "q": params.q,
            "level": args.level,
            "k": args.k,
            "multiplier": multiplier,
            "valid_below": series.valid_below,
            "poly": series.poly.to_json_dict(),
        }, 0
    return [
        f"# pseries p={params.p} s={params.s} level={args.level} k={args.k} "
        f"multiplier={multiplier} valid_below=x^{series.valid_below}",
        f"[{multiplier}](x) = {series.poly.to_text()}",
    ], 0


def _cmd_oracle(args) -> tuple[dict | list[str], int]:
    params = engine.FglParams(args.p, args.s)
    orc = oracle.oracle_fgl(params, args.degree)
    checks: dict[str, bool] = {}
    if args.check_associativity:
        checks["associativity"] = oracle.check_associativity(orc).ok
    if args.check_pseries:
        got = oracle.oracle_p_series(orc, 1)
        exponent = params.p**params.s
        want = {(exponent,): 1} if exponent < args.degree else {}
        checks["pseries"] = dict(got.terms) == want
    status = 0 if all(checks.values()) else 1
    if args.json:
        payload = {
            "p": params.p,
            "s": params.s,
            "degree": args.degree,
            "poly_mod_p": orc.poly_mod_p.to_json_dict(),
            "poly_rational": orc.poly_rational.to_json_dict(),
        }
        if checks:
            payload["checks"] = checks
        return payload, status
    lines = [
        f"# oracle p={params.p} s={params.s} degree={args.degree}",
        f"F mod p = {orc.poly_mod_p.to_text()}",
    ]
    for name, ok in checks.items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    return lines, status


def _cmd_verify(args) -> tuple[dict | list[str], int]:
    params = engine.FglParams(args.p, args.s)
    tower = engine.build_tower(params, args.level)
    degree = args.degree
    if degree is None:
        degree = oracle.default_compare_degree(params, args.level)
    report = oracle.compare(tower[-1], oracle.oracle_fgl(params, degree))
    status = 0 if report.ok else 1
    if args.json:
        return {
            "p": params.p,
            "s": params.s,
            "level": args.level,
            "degree": degree,
            "ok": report.ok,
            "mismatches": [
                {"e": [i, j], "engine": str(ec), "oracle": str(oc)}
                for i, j, ec, oc in report.mismatches
            ],
        }, status
    return [f"# verify p={params.p} s={params.s} level={args.level} degree={degree}", report.summary()], status


def _cmd_chern(args) -> tuple[dict | list[str], int]:
    params = engine.FglParams(args.p, args.s)
    rels = chern_mod.relation_set(params, args.k)
    if args.json:
        return {
            "p": params.p,
            "s": params.s,
            "k": rels.k,
            "m": rels.m,
            "level": rels.level,
            "u_cap": rels.u_cap,
            "relations": [
                {"i": i, "poly": r.to_json_dict()} for i, r in enumerate(rels.relations, start=1)
            ],
        }, 0
    lines = [
        f"# chern p={params.p} s={params.s} k={rels.k} m={rels.m} "
        f"level={rels.level} u_cap={rels.u_cap}"
    ]
    lines += [
        f"relation_{i} = {r.to_text()}" for i, r in enumerate(rels.relations, start=1)
    ]
    return lines, 0


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
        result, status = _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"fgl: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"fgl: resource guard: {exc}", file=sys.stderr)
        return 3
    except FglError as exc:
        print(f"fgl: error: {exc}", file=sys.stderr)
        return 2
    text = (json.dumps(result, separators=(",", ":")) if args.json else "\n".join(result)) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return status
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"fgl: invalid parameters: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return status


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
