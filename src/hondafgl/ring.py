"""Exact sparse multivariate polynomial arithmetic over F_p, Z, and Q.

A polynomial is a finite map from exponent tuples (one entry per variable of
an explicit, ordered variable set) to nonzero coefficients.  Coefficients are
plain ints for the integer and prime-field domains and `fractions.Fraction`
for the rational domain; prime-field residues are kept canonical in [0, p).
Zero coefficients are never stored, so equality of term maps is equality of
polynomials.

Every operation is a pure function returning a new polynomial; instances are
treated as immutable and are safe to share across threads.  Products (and
everything built on products: powers, substitution, elementary symmetric
polynomials) can be truncated on the fly by a `TruncationPolicy` carrying
per-variable exponent caps and an optional total-degree cap, which keeps
intermediate results small when working modulo y^N or modulo a total degree.

Canonical term order is graded-lexicographic: ascending total degree, ties
broken so that higher powers of earlier variables come first.  Serialization
(JSON and text) always emits this order, so outputs are byte-reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import IntegralityError, ParameterError, StructuralError

Exponent = tuple[int, ...]
Coeff = Union[int, Fraction]

_FP = "fp"
_INT = "int"
_RAT = "rat"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Domain:
    """Coefficient domain: a prime field F_p, the integers, or the rationals."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (_FP, _INT, _RAT):
            raise StructuralError(f"unknown coefficient domain kind {self.kind!r}")
        if self.kind == _FP:
            if self.p is None or not _is_prime(self.p):
                raise ParameterError(f"prime field modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise StructuralError(f"domain {self.kind!r} takes no modulus")

    def normalize(self, c) -> Coeff:
        """Bring a raw coefficient into canonical form for this domain."""
        if self.kind == _FP:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise StructuralError(f"non-integer coefficient {c} in {self}")
                c = c.numerator
            return c % self.p
        if self.kind == _INT:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise StructuralError(f"non-integer coefficient {c} over Z")
                return c.numerator
            return int(c)
        return c if isinstance(c, Fraction) else Fraction(c)

    def coeff_from_str(self, s: str) -> Coeff:
        return self.normalize(Fraction(s) if self.kind == _RAT else int(s))

    def to_json_dict(self) -> dict:
        if self.kind == _FP:
            return {"kind": _FP, "p": self.p}
        return {"kind": self.kind}

    @staticmethod
    def from_json_dict(d: Mapping) -> "Domain":
        return Domain(d["kind"], d.get("p"))

    def __str__(self) -> str:
        if self.kind == _FP:
            return f"F_{self.p}"
        return "Z" if self.kind == _INT else "Q"


INTEGERS = Domain(_INT)
RATIONALS = Domain(_RAT)


def prime_field(p: int) -> Domain:
    return Domain(_FP, p)


@dataclass(frozen=True)
class TruncationPolicy:
    """Exponent caps applied inside every product.

    `caps` maps a variable name to an exclusive exponent bound: monomials in
    which that variable appears with exponent >= the bound are dropped.
    `total` is an optional exclusive bound on total degree.  Applying a policy
    twice equals applying it once, and truncation commutes with addition.
    """

    caps: Mapping[str, int] = field(default_factory=dict)
    total: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "caps", dict(self.caps))
        for v, bound in self.caps.items():
            if bound < 0:
                raise StructuralError(f"negative exponent cap for {v!r}")

    @property
    def is_unbounded(self) -> bool:
        return not self.caps and self.total is None

    def cap_vector(self, variables: Sequence[str]) -> tuple:
        """Per-variable caps aligned with a variable order (None = uncapped)."""
        return tuple(self.caps.get(v) for v in variables)

    def allows(self, variables: Sequence[str], exponent: Exponent) -> bool:
        if self.total is not None and sum(exponent) >= self.total:
            return False
        for e, cap in zip(exponent, self.cap_vector(variables)):
            if cap is not None and e >= cap:
                return False
        return True


NO_TRUNCATION = TruncationPolicy()

_VAR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _grlex_key(e: Exponent):
    # ascending total degree, then higher powers of earlier variables first
    return (sum(e), tuple(-x for x in e))


class SparsePoly:
    """A sparse multivariate polynomial over a fixed domain and variable set."""

    __slots__ = ("variables", "domain", "terms")

    def __init__(self, variables: Sequence[str], domain: Domain, terms: Mapping[Exponent, Coeff] | None = None):
        variables = tuple(variables)
        if not variables:
            raise StructuralError("variable set must be nonempty")
        if len(set(variables)) != len(variables):
            raise StructuralError(f"duplicate variable in {variables}")
        for v in variables:
            if not _NAME_RE.match(v):
                raise StructuralError(f"invalid variable name {v!r}")
        clean: dict[Exponent, Coeff] = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != len(variables):
                raise StructuralError(f"exponent {e} has wrong arity for {variables}")
            if any(k < 0 or not isinstance(k, int) for k in e):
                raise StructuralError(f"exponents must be non-negative integers, got {e}")
            c = domain.normalize(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], domain: Domain) -> "SparsePoly":
        return cls(variables, domain, {})

    @classmethod
    def one(cls, variables: Sequence[str], domain: Domain) -> "SparsePoly":
        return cls(variables, domain, {(0,) * len(tuple(variables)): 1})

    @classmethod
    def variable(cls, variables: Sequence[str], domain: Domain, name: str) -> "SparsePoly":
        variables = tuple(variables)
        if name not in variables:
            raise StructuralError(f"{name!r} is not one of {variables}")
        e = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, domain, {e: 1})

    # ---- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.domain == other.domain
            and self.terms == other.terms
        )

    __hash__ = None

    def coefficient(self, exponent: Exponent) -> Coeff:
        return self.terms.get(tuple(exponent), self.domain.normalize(0))

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        """Terms in canonical graded-lex order."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    # ---- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "SparsePoly"):
        if self.variables != other.variables:
            raise StructuralError(f"variable sets differ: {self.variables} vs {other.variables}")
        if self.domain != other.domain:
            raise StructuralError(f"domains differ: {self.domain} vs {other.domain}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(self.variables, self.domain, out)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.variables, self.domain, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c) -> "SparsePoly":
        return SparsePoly(self.variables, self.domain, {e: v * c for e, v in self.terms.items()})

    def mul(self, other: "SparsePoly", trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """Product with every monomial violating `trunc` dropped.

        The result is independent of term order: coefficients are accumulated
        exactly and reduced once at the end.
        """
        self._check_compatible(other)
        caps = None if not trunc.caps else trunc.cap_vector(self.variables)
        total = trunc.total
        out: dict[Exponent, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if total is not None and sum(e) >= total:
                    continue
                if caps is not None:
                    violated = False
                    for k, cap in zip(e, caps):
                        if cap is not None and k >= cap:
                            violated = True
                            break
                    if violated:
                        continue
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly(self.variables, self.domain, out)

    def pow(self, exponent: int, trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """Repeated squaring, truncating after every product."""
        if exponent < 0:
            raise StructuralError("negative exponent")
        result = SparsePoly.one(self.variables, self.domain)
        base = self.truncate(trunc)
        e = exponent
        while e:
            if e & 1:
                result = result.mul(base, trunc)
            e >>= 1
            if e:
                base = base.mul(base, trunc)
        return result

    def truncate(self, trunc: TruncationPolicy) -> "SparsePoly":
        if trunc.is_unbounded:
            return self
        keep = {e: c for e, c in self.terms.items() if trunc.allows(self.variables, e)}
        if len(keep) == len(self.terms):
            return self
        return SparsePoly(self.variables, self.domain, keep)

    def substitute(
        self,
        assignment: Mapping[str, "SparsePoly"],
        trunc: TruncationPolicy = NO_TRUNCATION,
    ) -> "SparsePoly":
        """Evaluate this polynomial at the assignment, truncating every product.

        The assignment must cover exactly the variables of this polynomial.
        All images must live in one common variable set over the same domain
        (which may differ from this polynomial's own variable set: the two
        slots of a formal group law template get bound to polynomials in the
        ambient variables).
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise StructuralError(f"assignment misses variables {missing}")
        extra = [v for v in assignment if v not in self.variables]
        if extra:
            raise StructuralError(f"assignment binds unknown variables {extra}")
        images = [assignment[v] for v in self.variables]
        first = images[0]
        for img in images[1:]:
            first._check_compatible(img)
        if first.domain != self.domain:
            raise StructuralError(f"image domain {first.domain} differs from template domain {self.domain}")

        # cache img, img^2, ..., img^max once per variable
        max_exp = [0] * len(self.variables)
        for e in self.terms:
            for i, k in enumerate(e):
                if k > max_exp[i]:
                    max_exp[i] = k
        powers: list[list[SparsePoly]] = []
        one = SparsePoly.one(first.variables, first.domain)
        for img, top in zip(images, max_exp):
            col = [one]
            for _ in range(top):
                col.append(col[-1].mul(img, trunc))
            powers.append(col)

        out: dict[Exponent, Coeff] = {}
        for e, c in self.terms.items():
            term = one
            for i, k in enumerate(e):
                if k:
                    term = term.mul(powers[i][k], trunc)
            for te, tc in term.terms.items():
                out[te] = out.get(te, 0) + tc * c
        return SparsePoly(first.variables, first.domain, out).truncate(trunc)

    def map_domain(self, target: Domain) -> "SparsePoly":
        """Coefficientwise image in another domain.

        Supported: Z -> F_p, Q -> F_p (every denominator must be coprime to
        p), Z -> Q, and the identity.  A denominator divisible by p raises
        IntegralityError.
        """
        if target == self.domain:
            return self
        src, dst = self.domain.kind, target.kind
        out: dict[Exponent, Coeff] = {}
        if src == _INT and dst == _FP:
            for e, c in self.terms.items():
                out[e] = c % target.p
        elif src == _RAT and dst == _FP:
            p = target.p
            for e, c in self.terms.items():
                if c.denominator % p == 0:
                    raise IntegralityError(
                        f"coefficient {c} of monomial {e} has denominator divisible by {p}"
                    )
                out[e] = c.numerator * pow(c.denominator, -1, p) % p
        elif src == _INT and dst == _RAT:
            out = dict(self.terms)
        else:
            raise StructuralError(f"unsupported domain conversion {self.domain} -> {target}")
        return SparsePoly(self.variables, target, out)

    # ---- serialization -------------------------------------------------

    def to_text(self) -> str:
        """Human-readable form, e.g. 'x^3*y + x*y^3', in canonical order."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.variables, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            negative = c < 0
            mag = -c if negative else c
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            chunks.append((negative, body))
        neg, body = chunks[0]
        text = ("-" if neg else "") + body
        for neg, body in chunks[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SparsePoly({self.to_text()!r}, vars={self.variables}, domain={self.domain})"

    @classmethod
    def parse_text(cls, text: str, variables: Sequence[str], domain: Domain) -> "SparsePoly":
        """Inverse of to_text for the given variable set and domain."""
        variables = tuple(variables)
        index = {v: i for i, v in enumerate(variables)}
        s = text.strip()
        if s == "0":
            return cls.zero(variables, domain)
        s = s.replace(" - ", " + -")
        terms: dict[Exponent, Coeff] = {}
        for raw in s.split(" + "):
            raw = raw.strip()
            negative = raw.startswith("-")
            if negative:
                raw = raw[1:]
            coeff: Coeff = 1
            exps = [0] * len(variables)
            for factor in raw.split("*"):
                factor = factor.strip()
                m = _VAR_RE.match(factor)
                if m and m.group(1) in index:
                    exps[index[m.group(1)]] += int(m.group(2) or 1)
                else:
                    try:
                        coeff = coeff * (Fraction(factor) if "/" in factor else int(factor))
                    except ValueError:
                        raise StructuralError(f"cannot parse factor {factor!r}") from None
            e = tuple(exps)
            terms[e] = terms.get(e, 0) + (-coeff if negative else coeff)
        return cls(variables, domain, terms)

    def to_json_dict(self) -> dict:
        terms = []
        for e, c in self.sorted_terms():
            trimmed = list(e)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            terms.append({"e": trimmed, "c": str(c)})
        return {
            "vars": list(self.variables),
            "domain": self.domain.to_json_dict(),
            "terms": terms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SparsePoly":
        variables = tuple(d["vars"])
        domain = Domain.from_json_dict(d["domain"])
        n = len(variables)
        terms: dict[Exponent, Coeff] = {}
        for t in d["terms"]:
            e = list(t["e"])
            if len(e) > n:
                raise StructuralError(f"exponent {e} too long for {variables}")
            e = tuple(e + [0] * (n - len(e)))
            terms[e] = domain.coeff_from_str(t["c"])
        return cls(variables, domain, terms)

    @classmethod
    def from_json(cls, s: str) -> "SparsePoly":
        return cls.from_json_dict(json.loads(s))


def elementary_symmetric_all(
    values: Sequence[SparsePoly], trunc: TruncationPolicy = NO_TRUNCATION
) -> list[SparsePoly]:
    """All sigma_0 .. sigma_m of the given polynomials (sigma_0 = 1).

    Computed through the generating function prod_j (1 + z*v_j): the list is
    the coefficient vector in z, updated one factor at a time with every
    product truncated.
    """
    values = list(values)
    if not values:
        raise StructuralError("need at least one value")
    first = values[0]
    for v in values[1:]:
        first._check_compatible(v)
    sig = [SparsePoly.one(first.variables, first.domain)]
    zero = SparsePoly.zero(first.variables, first.domain)
    for v in values:
        nxt = [sig[0]]
        for k in range(1, len(sig) + 1):
            prev = sig[k] if k < len(sig) else zero
            nxt.append(prev + sig[k - 1].mul(v, trunc))
        sig = nxt
    return sig
