"""Exact sparse multivariate polynomial arithmetic over F_p, Z, and Q.

A polynomial is a finite map from exponent tuples (one entry per variable of
an explicit, ordered variable set) to nonzero coefficients.  Coefficients are
plain ints for the integer and prime-field domains and `fractions.Fraction`
for the rational domain, imported only where one is made; prime-field
residues are kept canonical in [0, p).
Zero coefficients are never stored, so equality of term maps is equality of
polynomials.

Every operation is a pure function returning a new polynomial; instances are
treated as immutable and are safe to share across threads.  Products (and
everything built on products: powers, substitution, elementary symmetric
polynomials) can be truncated on the fly by a `TruncationPolicy`: one
exclusive bound on one weight, the exponent of one variable or the total
degree, which keeps intermediate results small when working modulo y^N or
modulo a total degree.

Every product is formed by one kernel, `_mul_into`, which adds its term
pairs straight into a term map its caller owns: a fresh map for `mul`, the
running sum for substitution, sigma_k itself for the elementary symmetric
polynomials.  No product of a sum becomes a polynomial of its own, and the
map is reduced once, when the result is made.  The right factor enters the
kernel sorted by the truncation weight (`_by_weight`), once per factor
however many products it enters.

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
from functools import cache
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import ParameterError, StructuralError, _is_int, shown

Exponent = tuple[int, ...]
Coeff = Union[int, "Fraction"]  # fractions.Fraction

_FP = "fp"
_INT = "int"
_RAT = "rat"


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


@cache
def _fraction() -> type:
    """fractions.Fraction, imported where a Q coefficient is first made: it
    loads decimal and numbers too, which nothing over F_p or Z needs."""
    from fractions import Fraction

    return Fraction


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
        """Bring a raw coefficient into canonical form for this domain: an
        int over F_p or Z, which takes no import, an int or a Fraction over Q."""
        if self.kind != _RAT:
            if not isinstance(c, int):
                raise StructuralError(f"coefficient {c!r} is a {type(c).__name__}, not an int, over {self}")
            return c % self.p if self.kind == _FP else int(c)
        Fraction = _fraction()
        if not isinstance(c, (int, Fraction)):
            raise StructuralError(f"coefficient {c!r} is a {type(c).__name__}, not an int or a Fraction")
        return c if isinstance(c, Fraction) else Fraction(c)

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
        if bound is not None and not _is_int(bound):
            raise StructuralError(f"truncation bound {bound!r} is a {type(bound).__name__}, not an int")
        if bound is not None and bound < 0:
            raise StructuralError(f"negative truncation bound {shown(bound)}")
        return super().__new__(cls, bound, var)


NO_TRUNCATION = TruncationPolicy()

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_CHECKED: set[tuple[str, ...]] = set()  # variable tuples already validated
_BLOCK = 2048  # terms per block of `text_blocks`


def _exponent(e, variables: tuple[str, ...]) -> Exponent:
    """e as a tuple, checked: one non-negative int per variable."""
    e = tuple(e)
    if len(e) != len(variables):
        raise StructuralError(f"exponent {e} has wrong arity for {variables}")
    if any(not _is_int(k) or k < 0 for k in e):
        raise StructuralError(f"exponents must be non-negative integers, got {e}")
    return e


def _grlex_sorted(exponents) -> list[Exponent]:
    # ascending total degree, then higher powers of earlier variables first
    out = sorted(exponents, reverse=True)
    out.sort(key=sum)
    return out


def _mul_into(out: dict, left: Iterable[tuple[Exponent, Coeff]], right: tuple, scale: Coeff = 1) -> dict:
    """Add scale * left * right into the term map `out`, which the caller
    owns, and return it unreduced.  `left` is any run of (exponent,
    coefficient) pairs; `right` is a factor from `_by_weight`, whose terms
    ascend in the weight, so those that pass with e1 are a prefix, cut by one
    bisection: the only truncation test.  Coefficients are accumulated
    exactly, so the result is independent of term order."""
    rows, weights, weight, bound = right
    for e1, c1 in left:
        c1 *= scale
        for e2, c2 in rows[: bisect_left(weights, bound - weight(e1))]:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _add_into(out: dict, terms: Mapping[Exponent, Coeff], p: int | None) -> dict:
    """Add the term map `terms` into `out`, in place: each sum reduced mod p
    over F_p (p None otherwise), a zero dropped.  out's other terms are not
    touched."""
    for e, c in terms.items():
        c += out.get(e, 0)
        if p:
            c %= p
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def _reduce(terms: dict, p: int | None) -> dict:
    """The term map `terms`, in place and in one pass: reduced mod p over F_p
    (p None otherwise), zeros dropped.  Only a coefficient outside [0, p) is
    stored, so a map mostly reduced already hashes few keys again."""
    if p:
        zeros = []
        for e, c in terms.items():
            if not 0 < c < p:
                if c := c % p:
                    terms[e] = c
                else:
                    zeros.append(e)
    else:
        zeros = [e for e, c in terms.items() if not c]
    for e in zeros:
        del terms[e]
    return terms


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
            e, c = _exponent(e, variables), domain.normalize(c)
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
            _reduce(terms, domain.p)
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
        """The coefficient of one monomial, 0 if absent; the exponent is
        checked as the constructor checks it."""
        return self.terms.get(_exponent(exponent, self.variables), self.domain.normalize(0))

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
        out = _add_into(dict(self.terms), other.terms, self.domain.p)
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
        dropped: its term pairs accumulate in a fresh map, through
        `_mul_into`, which is reduced once at the end."""
        self._check_compatible(other)
        return self._times(other._by_weight(trunc))

    def _times(self, right: tuple) -> "SparsePoly":
        """self * the factor `right`, sorted by `_by_weight`, as a polynomial."""
        return SparsePoly._trusted(self.variables, self.domain, _mul_into({}, self.terms.items(), right))

    def _by_weight(self, trunc: TruncationPolicy) -> tuple:
        """self as the right factor of `_mul_into` modulo `trunc`: its terms
        ascending in the weight, their weights, the weight and the bound.
        Made once per factor, however many products it enters."""
        if trunc.var is not None and trunc.var not in self.variables:
            raise StructuralError(f"truncation variable {trunc.var!r} is not one of {self.variables}")
        weight = sum if trunc.var is None else itemgetter(self.variables.index(trunc.var))
        rows = sorted(self.terms.items(), key=lambda t: weight(t[0]))
        bound = float("inf") if trunc.bound is None else trunc.bound
        return rows, [weight(e) for e, _ in rows], weight, bound

    def pow(self, exponent: int, trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """self^exponent modulo `trunc`.  Every power goes through `_powers`:
        twists over F_p, consecutive products over Z and Q."""
        if not _is_int(exponent) or exponent < 0:
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
        self^d (d < p over F_p) and each twist is made once, when first
        needed, and sorted as a right factor once: self here, a twist when made."""
        p, digits, twists = self.domain.p, [SparsePoly.one(self.variables, self.domain).truncate(trunc)], {}
        right = self._by_weight(trunc)

        def power(k: int) -> "SparsePoly":
            if p is None:
                while len(digits) <= k:
                    digits.append(digits[-1]._times(right))
                return digits[k]
            out, factor = None, 1
            while k:
                k, d = divmod(k, p)
                if d:
                    while len(digits) <= d:
                        digits.append(digits[-1]._times(right))
                    if (d, factor) not in twists:
                        twist = digits[d]._twist(factor, trunc)
                        twists[d, factor] = twist, twist._by_weight(trunc)
                    twist, by_weight = twists[d, factor]
                    out = twist if out is None else out._times(by_weight)
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

        # img^k for every exponent k of each variable, each made once,
        # truncated, and sorted as a right factor, so every product below is
        # truncated too
        powers: list = []
        for i, img in enumerate(images):
            power = img._powers(trunc)
            powers.append({k: power(k)._by_weight(trunc) for k in {e[i] for e in self.terms}})

        # the last factor of each term is multiplied straight into out, scaled
        # by the term's coefficient; out is reduced once, at the end
        out: dict[Exponent, Coeff] = {}
        one = SparsePoly.one(first.variables, first.domain).terms.items()
        for e, c in self.terms.items():
            *head, last = [powers[i][k] for i, k in enumerate(e) if k] or [powers[0][0]]
            term = head[0][0] if head else one
            for factor in head[1:]:
                term = _reduce(_mul_into({}, term, factor), first.domain.p).items()
            _mul_into(out, term, last, c)
        return SparsePoly._trusted(first.variables, first.domain, out)

    def map_domain(self, target: Domain) -> "SparsePoly":
        """Coefficientwise image in another domain: Z -> F_p, or the identity.
        Any other pair is a StructuralError."""
        if target == self.domain:
            return self
        if self.domain.kind != _INT or target.kind != _FP:
            raise StructuralError(f"unsupported domain conversion {self.domain} -> {target}")
        return SparsePoly._trusted(self.variables, target, dict(self.terms))

    # ---- serialization -------------------------------------------------

    def text_blocks(self) -> Iterator[str]:
        """Human-readable form, e.g. 'x^3*y + x*y^3', in canonical order, as
        consecutive pieces of _BLOCK terms each; `to_text` is their join.
        Only the sort and a head ' + c' or ' - c' per distinct coefficient
        run in Python.  Each block is built by columns, all C-level maps over
        the block: the heads, and per variable its factors '*v^k', each made
        on first use; zipped, each term is one join.  Then a coefficient 1
        is dropped by replacing ' + 1*' and ' - 1*': no monomial holds a space."""
        if not self.terms:
            yield "0"
            return
        terms, order = self.terms, _grlex_sorted(self.terms)
        heads = {c: f" - {-c}" if c < 0 else f" + {c}" for c in set(terms.values())}
        factors = [_Factors({0: "", 1: f"*{v}"}) for v in self.variables]
        for start in range(0, len(order), _BLOCK):
            chunk = order[start : start + _BLOCK]
            columns = [map(f.__getitem__, map(itemgetter(i), chunk)) for i, f in enumerate(factors)]
            text = "".join(map("".join, zip(map(heads.__getitem__, map(terms.__getitem__, chunk)), *columns)))
            text = text.replace(" + 1*", " + ").replace(" - 1*", " - ")
            yield text if start else text[3:] if text[1] == "+" else "-" + text[3:]

    def to_text(self) -> str:
        return "".join(self.text_blocks())

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

    Computed through the generating function prod_j (1 + z*v_j): one term
    map per sigma_k, updated one factor at a time.  For each v, sorted once,
    k runs from the top down, so sigma_(k-1) * v, truncated, is multiplied
    straight into sigma_k's own map before sigma_(k-1) itself changes; each
    map is reduced once per factor.
    """
    values = list(values)
    if not values:
        raise StructuralError("need at least one value")
    first = values[0]
    for v in values[1:]:
        first._check_compatible(v)
    variables, domain = first.variables, first.domain
    sig = [SparsePoly.one(variables, domain).terms]
    for v in values:
        right = v._by_weight(trunc)
        sig.append({})
        for k in range(len(sig) - 1, 0, -1):
            _reduce(_mul_into(sig[k], sig[k - 1].items(), right), domain.p)
    return [SparsePoly._trusted(variables, domain, t, reduced=True) for t in sig]
