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
polynomials) can be truncated on the fly by a `TruncationPolicy`: one
exclusive bound on one weight, the exponent of one variable or the total
degree, which keeps intermediate results small when working modulo y^N or
modulo a total degree.

Validation happens at the boundary: the constructor checks each variable
tuple once (and remembers it), and every exponent and coefficient it is
given.  Results of the ring's own arithmetic are right by construction, so
they skip those checks; their coefficients are only reduced mod p over F_p,
and zeros dropped.

Every power, in `pow` and in substitution, goes through `_powers`.  Over Z
and Q it forms the consecutive products self^k = self^(k-1) * self.  Over F_p
it multiplies only inside self^0 .. self^(p-1): a p^r-th power is a Frobenius
twist, (sum c m)^(p^r) = sum c m^(p^r) since c^p = c, so self^k is a product
of twists, one per base-p digit of k.

Canonical term order is graded-lexicographic: ascending total degree, ties
broken so that higher powers of earlier variables come first.  Serialization
(JSON and text) always emits this order, so outputs are byte-reproducible.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import add, getitem, itemgetter
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import IntegralityError, ParameterError, StructuralError, shown

Exponent = tuple[int, ...]
Coeff = Union[int, Fraction]

_FP = "fp"
_INT = "int"
_RAT = "rat"


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the 13 primes 2..41, which decides every n below
    _PRIME_LIMIT (Sorenson & Webster 2015); a larger n is refused."""
    if n >= _PRIME_LIMIT:
        raise ParameterError(f"p = {shown(n)} is too large: primality is decided only below {_PRIME_LIMIT}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Domain(NamedTuple("Domain", [("kind", str), ("p", int | None)])):
    """Coefficient domain: a prime field F_p, the integers, or the rationals."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int | None = None):
        if kind not in (_FP, _INT, _RAT):
            raise StructuralError(f"unknown coefficient domain kind {kind!r}")
        if kind == _FP:
            if p is None or not _is_prime(p):
                raise ParameterError(f"prime field modulus must be prime, got {shown(p)}")
        elif p is not None:
            raise StructuralError(f"domain {kind!r} takes no modulus")
        return super().__new__(cls, kind, p)

    def normalize(self, c) -> Coeff:
        """Bring a raw coefficient, an int or a Fraction, into canonical form
        for this domain."""
        if not isinstance(c, (int, Fraction)):
            raise StructuralError(f"coefficient {c!r} is a {type(c).__name__}, not an int or a Fraction")
        if self.kind == _RAT:
            return c if isinstance(c, Fraction) else Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise StructuralError(f"non-integer coefficient {c} over {self}")
            c = c.numerator
        return c % self.p if self.kind == _FP else int(c)

    def to_json_dict(self) -> dict:
        if self.kind == _FP:
            return {"kind": _FP, "p": self.p}
        return {"kind": self.kind}

    def __str__(self) -> str:
        if self.kind == _FP:
            return f"F_{self.p}"
        return "Z" if self.kind == _INT else "Q"


INTEGERS = Domain(_INT)
RATIONALS = Domain(_RAT)


def prime_field(p: int) -> Domain:
    return Domain(_FP, p)


class TruncationPolicy(NamedTuple("TruncationPolicy", [("bound", int | None), ("var", str | None)])):
    """One exclusive bound on one weight, applied inside every product.

    Monomials whose weight is >= `bound` are dropped.  The weight is the
    exponent of `var`, or the total degree when `var` is None; with no bound
    nothing is dropped.  Applying a policy twice equals applying it once, and
    truncation commutes with addition.
    """

    __slots__ = ()

    def __new__(cls, bound: int | None = None, var: str | None = None):
        if bound is not None and not isinstance(bound, int):
            raise StructuralError(f"truncation bound {bound!r} is a {type(bound).__name__}, not an int")
        if bound is not None and bound < 0:
            raise StructuralError(f"negative truncation bound {shown(bound)}")
        return super().__new__(cls, bound, var)


NO_TRUNCATION = TruncationPolicy()

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_CHECKED: set[tuple[str, ...]] = set()  # variable tuples already validated


def _grlex_sorted(exponents) -> list[Exponent]:
    # ascending total degree, then higher powers of earlier variables first
    out = sorted(exponents, reverse=True)
    out.sort(key=sum)
    return out


class _Factors(dict):
    """The factors '*v^k' of one variable by k, from {0: '', 1: '*v'} on."""

    def __missing__(self, k: int) -> str:
        self[k] = f"{self[1]}^{k}"
        return self[k]


class SparsePoly:
    """A sparse multivariate polynomial over a fixed domain and variable set."""

    __slots__ = ("variables", "domain", "terms")

    def __init__(self, variables: Sequence[str], domain: Domain, terms: Mapping[Exponent, Coeff] | None = None):
        variables = tuple(variables)
        if variables not in _CHECKED:
            if not variables:
                raise StructuralError("variable set must be nonempty")
            if len(set(variables)) != len(variables):
                raise StructuralError(f"duplicate variable in {variables}")
            for v in variables:
                if not _NAME_RE.match(v):
                    raise StructuralError(f"invalid variable name {v!r}")
            _CHECKED.add(variables)
        clean: dict[Exponent, Coeff] = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != len(variables):
                raise StructuralError(f"exponent {e} has wrong arity for {variables}")
            if any(not isinstance(k, int) or k < 0 for k in e):
                raise StructuralError(f"exponents must be non-negative integers, got {e}")
            c = domain.normalize(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], domain: Domain, terms: dict, reduced: bool = False) -> "SparsePoly":
        """A result of the ring's own arithmetic, right by construction but for
        its coefficients: `terms`, a dict no one else holds, is reduced mod p
        in place over F_p (over Q they are Fractions already), zeros dropped,
        unless the caller has `reduced` them already."""
        if not reduced:
            if domain.kind == _FP:
                p = domain.p
                for e, c in terms.items():
                    terms[e] = c % p
            for e in [e for e, c in terms.items() if not c]:
                del terms[e]
        poly = cls(variables, domain)
        object.__setattr__(poly, "terms", terms)
        return poly

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
        return [(e, self.terms[e]) for e in _grlex_sorted(self.terms)]

    # ---- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "SparsePoly"):
        if self.variables != other.variables:
            raise StructuralError(f"variable sets differ: {self.variables} vs {other.variables}")
        if self.domain != other.domain:
            raise StructuralError(f"domains differ: {self.domain} vs {other.domain}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        """A C-level copy of self's terms; then a Python loop only over other's
        terms adds each, reduces it mod p and drops a zero, in place."""
        self._check_compatible(other)
        out, p = dict(self.terms), self.domain.p
        for e, c in other.terms.items():
            c += out.get(e, 0)
            if p:
                c %= p
            if c:
                out[e] = c
            else:
                out.pop(e, None)
        return SparsePoly._trusted(self.variables, self.domain, out, reduced=True)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._trusted(self.variables, self.domain, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c) -> "SparsePoly":
        c = self.domain.normalize(c)
        return SparsePoly._trusted(self.variables, self.domain, {e: v * c for e, v in self.terms.items()})

    def mul(self, other: "SparsePoly", trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """Product with every monomial whose weight reaches `trunc`'s bound
        dropped.  other's terms ascend in the weight, so those that pass with
        e1 are a prefix, cut by one bisection: the only truncation test.
        The result is independent of term order: coefficients are accumulated
        exactly and reduced once at the end."""
        self._check_compatible(other)
        if trunc.var is not None and trunc.var not in self.variables:
            raise StructuralError(f"truncation variable {trunc.var!r} is not one of {self.variables}")
        weight = sum if trunc.var is None else itemgetter(self.variables.index(trunc.var))
        bound = float("inf") if trunc.bound is None else trunc.bound
        rows = sorted(other.terms.items(), key=lambda t: weight(t[0]))
        weights = [weight(e) for e, _ in rows]
        out: dict[Exponent, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rows[: bisect_left(weights, bound - weight(e1))]:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly._trusted(self.variables, self.domain, out)

    def pow(self, exponent: int, trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """self^exponent modulo `trunc`.  Every power goes through `_powers`:
        twists over F_p, consecutive products over Z and Q."""
        if not isinstance(exponent, int) or exponent < 0:
            raise StructuralError(f"exponent must be a non-negative int, got {shown(exponent)}")
        return self._powers(trunc)(exponent)

    def _twist(self, factor: int, trunc: TruncationPolicy) -> "SparsePoly":
        """self^factor over F_p, for a power `factor` of p, modulo `trunc`:
        (sum c m)^factor = sum c m^factor as c^p = c, so nothing is multiplied."""
        scaled = {tuple(k * factor for k in e): c for e, c in self.terms.items()}
        return SparsePoly._trusted(self.variables, self.domain, scaled).truncate(trunc)

    def _powers(self, trunc: TruncationPolicy):
        """The map k -> self^k modulo `trunc`, with self^0 = 1 truncated too.
        Over F_p, the product of the twists (self^d)^(p^r) over the nonzero
        digits d of k = sum d p^r; over Z and Q, self^(k-1) * self.  Each
        self^d (d < p over F_p) and each twist is made once, when first needed."""
        p, digits, twists = self.domain.p, [SparsePoly.one(self.variables, self.domain).truncate(trunc)], {}

        def power(k: int) -> "SparsePoly":
            if p is None:
                while len(digits) <= k:
                    digits.append(digits[-1].mul(self, trunc))
                return digits[k]
            out, factor = None, 1
            while k:
                k, d = divmod(k, p)
                if d:
                    while len(digits) <= d:
                        digits.append(digits[-1].mul(self, trunc))
                    if (d, factor) not in twists:
                        twists[d, factor] = digits[d]._twist(factor, trunc)
                    out = twists[d, factor] if out is None else out.mul(twists[d, factor], trunc)
                factor *= p
            return digits[0] if out is None else out

        return power

    def truncate(self, trunc: TruncationPolicy) -> "SparsePoly":
        """The monomials `trunc` allows: the product with 1, through mul's own test."""
        return self.mul(SparsePoly.one(self.variables, self.domain), trunc)

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

        # img^k for every exponent k of each variable, each made once and
        # truncated, so every product below is too
        powers: list = []
        for i, img in enumerate(images):
            power = img._powers(trunc)
            powers.append({k: power(k) for k in {e[i] for e in self.terms}})

        out: dict[Exponent, Coeff] = {}
        for e, c in self.terms.items():
            factors = [powers[i][k] for i, k in enumerate(e) if k] or [powers[0][0]]
            term = factors[0]
            for factor in factors[1:]:
                term = term.mul(factor, trunc)
            for te, tc in term.terms.items():
                out[te] = out.get(te, 0) + tc * c
        return SparsePoly._trusted(first.variables, first.domain, out)

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
        if src == _INT and dst in (_FP, _RAT):
            out = {e: target.normalize(c) for e, c in self.terms.items()}
        elif src == _RAT and dst == _FP:
            p = target.p
            for e, c in self.terms.items():
                if c.denominator % p == 0:
                    raise IntegralityError(
                        f"coefficient {c} of monomial {e} has denominator divisible by {p}"
                    )
                out[e] = c.numerator * pow(c.denominator, -1, p)
        else:
            raise StructuralError(f"unsupported domain conversion {self.domain} -> {target}")
        return SparsePoly._trusted(self.variables, target, out)

    # ---- serialization -------------------------------------------------

    def to_text(self) -> str:
        """Human-readable form, e.g. 'x^3*y + x*y^3', in canonical order.  Only
        the sort and a head ' + c' or ' - c' per distinct coefficient run in
        Python; C-level maps join the terms from the heads and the factors
        '*v^k', each made on first use.  Then a coefficient 1 is dropped by
        replacing ' + 1*' and ' - 1*': no monomial holds a space."""
        if not self.terms:
            return "0"
        terms, order = self.terms, _grlex_sorted(self.terms)
        heads = {c: f" - {-c}" if c < 0 else f" + {c}" for c in set(terms.values())}
        factors = [_Factors({0: "", 1: f"*{v}"}) for v in self.variables]
        monos = map("".join, map(map, repeat(getitem), repeat(factors), order))
        text = "".join(map(add, map(heads.__getitem__, map(terms.__getitem__, order)), monos))
        text = text.replace(" + 1*", " + ").replace(" - 1*", " - ")
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SparsePoly({self.to_text()!r}, vars={self.variables}, domain={self.domain})"

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
    for v in values:
        nxt = [sig[0]]
        for k in range(1, len(sig)):
            nxt.append(sig[k] + sig[k - 1].mul(v, trunc))
        sig = nxt + [sig[-1].mul(v, trunc)]
    return sig
