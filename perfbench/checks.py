"""Independent checks of one `fgl` job's stdout, beyond its frozen digest.

Each check reads only the printed output and the job's own arguments, and
tests a fact the output must satisfy whatever code produced it: the oracle
agreed, [p^k](x) = x^(p^(ks)) below the validity bound, the degree bound
holds term by term, the law is commutative with P(x, 0) = x, the Witt
polynomials are symmetric and homogeneous, a Chern run emits m = p^k
relations.
"""

from __future__ import annotations

import json
import math
import re


def options(argv: list[str]) -> dict[str, object]:
    """'--p 2 --json' -> {'p': 2, 'json': True}."""
    out: dict[str, object] = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else "--"
            out[tok[2:]] = True if nxt.startswith("--") else int(nxt)
    return out


def parse_poly(text: str, variables=("x", "y")) -> dict[tuple[int, ...], int]:
    """Term map of a polynomial printed by `to_text`, integer coefficients."""
    terms: dict[tuple[int, ...], int] = {}
    if text == "0":
        return terms
    index = {v: i for i, v in enumerate(variables)}
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        coeff, exps = sign, [0] * len(variables)
        for factor in chunk.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            else:
                coeff *= int(factor)
        terms[tuple(exps)] = coeff
    return terms


def json_poly(d: dict) -> dict[tuple[int, ...], int]:
    """Term map of a polynomial printed by `to_json_dict`."""
    n = len(d["vars"])
    return {tuple(t["e"] + [0] * (n - len(t["e"]))): int(t["c"]) for t in d["terms"]}


def check(argv: list[str], out: str) -> str | None:
    """None if the output passes, else the reason it does not."""
    opt = options(argv)
    try:
        return _CHECKS[argv[0]](opt, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _compute(opt, out):
    p, s, level = opt["p"], opt["s"], opt["level"]
    q = p ** (s - 1)
    y_cap = q**level
    if opt.get("json"):
        d = json.loads(out)
        terms = json_poly(d["poly"])
        if opt.get("verify-degree-bound") and not d["degree_bound"]["passed"]:
            return "degree bound reported as failed"
        if opt.get("coeff-table"):
            rows = {(i, row["l"]): c for row in d["coeff_table"] for (i,), c in json_poly(row["poly"]).items()}
            if rows != terms:
                return "coefficient table does not add up to F"
        if opt.get("regrade"):
            if {tuple(r["e"]) for r in d["regrade"]} != set(terms):
                return "regrade does not list every term"
            if any(i + j - 1 != r["vs"] * (p**s - 1) for r in d["regrade"] for i, j in [r["e"]]):
                return "regraded term is not homogeneous"
    else:
        lines = out.splitlines()
        terms = parse_poly(lines[1])
        if opt.get("verify-degree-bound") and not any(ln.startswith("degree bound: pass") for ln in lines):
            return "degree bound not reported as passed"
    if {e: c for e, c in terms.items() if 0 in e} != {(1, 0): 1, (0, 1): 1}:
        return "F(x, 0) = x or F(0, y) = y fails"
    for (i, j), c in terms.items():
        if j >= y_cap:
            return f"term x^{i}*y^{j} beyond y^{y_cap}"
        if i < y_cap and terms.get((j, i)) != c:
            return f"F not symmetric at x^{i}*y^{j}"
        if opt.get("verify-degree-bound"):
            m = next(m for m in range(1, level + 1) if j < q**m)
            if i > (p * q) ** m:
                return f"x^{i}*y^{j} breaks the degree bound (p*q)^{m}"
    return None


def _pseries(opt, out):
    p, s, k = opt["p"], opt["s"], opt["k"]
    header, line = out.splitlines()
    valid_below = int(re.search(r"valid_below=x\^(\d+)", header).group(1))
    want = p ** (k * s)
    if want >= valid_below:
        return f"p^(ks) = {want} is not below valid_below = {valid_below}: vacuous"
    if line != f"[{p**k}](x) = x^{want}":
        return f"[p^k](x) is not x^{want}: {line[:80]}"
    return None


def _verify(opt, out):
    if not out.splitlines()[1].startswith("engine and oracle agree on every monomial"):
        return "engine and oracle disagree"
    return None


def _oracle(opt, out):
    lines = out.splitlines()
    for name in ("associativity", "pseries"):
        if opt.get(f"check-{name}") and f"check {name}: pass" not in lines:
            return f"oracle {name} check did not pass"
    return None


def _witt(opt, out):
    p = opt["p"]
    polys = [json_poly(w) for w in json.loads(out)["polys"]]
    if len(polys) != opt["jmax"] + 1:
        return f"{len(polys)} Witt polynomials, expected {opt['jmax'] + 1}"
    if polys[0] != {(1, 0): 1, (0, 1): 1}:
        return "w_0 is not x + y"
    if polys[1] != {(j, p - j): -(math.comb(p, j) // p) for j in range(1, p)}:
        return "w_1 differs from its closed form"
    for n, w in enumerate(polys[1:], start=1):
        for (i, j), c in w.items():
            if i + j != p**n or 0 in (i, j) or w.get((j, i)) != c:
                return f"w_{n} is not symmetric, homogeneous of degree p^{n}, zero on the axes"
    return None


def _chern(opt, out):
    m = opt["p"] ** opt["k"]
    if opt.get("json"):
        d = json.loads(out)
        count = len(d["relations"]) if d["m"] == m else -1
    else:
        lines = out.splitlines()
        count = sum(ln.startswith("relation_") for ln in lines) if f" m={m} " in lines[0] else -1
    return None if count == m else f"expected {m} relations"


_CHECKS = {
    "compute": _compute,
    "pseries": _pseries,
    "verify": _verify,
    "oracle": _oracle,
    "witt": _witt,
    "chern": _chern,
}
