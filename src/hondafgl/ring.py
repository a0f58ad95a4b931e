"""Exact sparse multivariate polynomial arithmetic over F_p and Z.

A polynomial is a finite map from exponent tuples (one entry per variable of
an explicit, ordered variable set) to nonzero coefficients.  Coefficients are
plain ints; prime-field residues are kept canonical in [0, p).
Zero coefficients are never stored, so equality of term maps is equality of
polynomials.

Every operation is a pure function returning a new polynomial; instances
are immutable, each with one term map fixed when it is made, and safe to
share across threads.  Products (and everything built on products: powers,
substitution, elementary symmetric polynomials) can be truncated on the
fly by a `TruncationPolicy`: one exclusive bound on one weight, the
exponent of one variable or the total degree, which keeps intermediate
results small when working modulo y^N or modulo a total degree.

Every product is formed by one kernel, `_mul_into`, over exponents packed
into ints by a `_Layout`: each operation that multiplies packs its operands
once and adds two monomials' keys for their product.  Its result keeps
those keys, with the layout that made them: it is printed from them, and
each read of its `terms` unpacks a fresh map.  The kernel adds its term
pairs straight into a map its caller owns: a fresh map for `mul`, the
running sum for substitution, sigma_k itself for the elementary symmetric
polynomials; the map is reduced once, and the right factor is sorted by
the truncation weight once, however many products it enters.

Validation happens at the boundary: the constructor checks every variable
tuple, exponent and coefficient it is given.  Results of the ring's own
arithmetic are right by construction, so they skip those checks; their
coefficients are only reduced mod p over F_p, and zeros dropped.

Every power, in `pow` and in substitution, goes through `_powers`.  Over Z
it forms the consecutive products self^k = self^(k-1) * self.  Over F_p a
p-th power is a Frobenius twist, (sum c m)^p = sum c m^p since c^p = c, so
one rule makes every power, from the top base-p digit of k down:
self^k = (self^(k // p))^p * self^(k mod p).  Under a bound b the twisted
power is made below ceil(b / p), so its twist is below b with nothing cut.

Canonical term order is graded-lexicographic: ascending total degree, ties
broken so that higher powers of earlier variables come first.  Serialization
(JSON and text) always emits this order, so outputs are byte-reproducible.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, pairwise, repeat
from operator import add, itemgetter, lshift, or_
from struct import Struct
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParameterError, StructuralError, _is_int, shown

Exponent = tuple[int, ...]

_FP = "fp"
_INT = "int"


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
    """Coefficient domain: a prime field F_p or the integers."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int | None = None):
        if kind not in (_FP, _INT):
            raise StructuralError(f"unknown coefficient domain kind {kind!r}")
        if kind == _FP:
            if not _is_int(p) or not _is_prime(p):
                raise ParameterError(f"prime field modulus must be prime, got {shown(p)}")
        elif p is not None:
            raise StructuralError(f"domain {kind!r} takes no modulus")
        return super().__new__(cls, kind, p)

    def normalize(self, c) -> int:
        """A raw coefficient in canonical form: an int, reduced mod p over F_p."""
        if not _is_int(c):
            raise StructuralError(f"coefficient {c!r} is a {type(c).__name__}, not an int, over {self}")
        return c % self.p if self.kind == _FP else int(c)

    def to_json_dict(self) -> dict:
        return {"kind": _FP, "p": self.p} if self.kind == _FP else {"kind": self.kind}

    def __str__(self) -> str:
        return f"F_{self.p}" if self.kind == _FP else "Z"


INTEGERS = Domain(_INT)


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

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_BLOCK = 2048  # terms per block of `_blocks`
_INT_DIGIT = sys.int_info.bits_per_digit  # bits per digit of an int


def _exponent(e, variables: tuple[str, ...]) -> Exponent:
    """e as a tuple, checked: one non-negative int per variable."""
    e = tuple(e)
    if len(e) != len(variables):
        raise StructuralError(f"exponent {e} has wrong arity for {variables}")
    if any(not _is_int(k) or k < 0 for k in e):
        raise StructuralError(f"exponents must be non-negative integers, got {e}")
    return e


def _mul_into(out: dict, left: Iterable[tuple[int, int]], right: tuple, scale: int = 1) -> dict:
    """Add scale * left * right into the packed term map `out`, which the
    caller owns, and return it unreduced.  `left` is any run of (key,
    coefficient) pairs; `right`, from `_Layout.factor`, ascends in the
    weight, so the terms that pass with e1 are a prefix, cut by one
    bisection: the only truncation test.  Exact, so term order is free."""
    rows, weights, weight, bound = right
    for e1, c1 in left:
        c1 *= scale
        for e2, c2 in rows[: bisect_left(weights, bound - weight(e1))]:
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


class _Layout:
    """Exponent tuples packed into ints, one layout per operation.

    Each variable has a field of whole bytes, in order, the first highest, so
    a key's big-endian bytes hold its exponents in order.  The total degree
    lies above them where it is the weight, and where it adds no int digit
    to the longest key; canonical order is then one sort of the keys, each
    with its variables' fields complemented (`canonical`).  The weight is read
    from its field: one C-level call for the total degree and for a capped
    last variable.  A field holds its variable's degree bound in the
    operation, and at most 2 * (bound - 1) where the bound caps it: no sum of
    two keys the operation forms carries.  Only in-bound terms are packed,
    as no other enters a product."""

    __slots__ = ("variables", "trunc", "bound", "weight", "_weigh", "_shifts", "_low", "_graded", "_mask", "_size", "_unpack")

    def __init__(self, variables: tuple[str, ...], trunc: TruncationPolicy, degrees: Iterable[int]):
        if trunc.var is not None and trunc.var not in variables:
            raise StructuralError(f"truncation variable {trunc.var!r} is not one of {variables}")
        capped = None if trunc.var is None else variables.index(trunc.var)
        self.bound = float("inf") if trunc.bound is None else trunc.bound
        cap = max(2 * self.bound - 2, 0)
        limits = [min(d, cap) if capped in (None, i) else d for i, d in enumerate(degrees)]
        sizes = [max(1, -(-limit.bit_length() // 8)) for limit in limits]
        if by_struct := max(sizes) <= 8:
            sizes = [1 << (size - 1).bit_length() for size in sizes]  # 1, 2, 4 or 8 bytes: struct's B, H, I, Q
        places = list(accumulate(reversed(sizes), initial=0))  # bytes below each field, the last first
        low, digit = 8 * places[-1], _INT_DIGIT
        top = max(1, -(-(sum(limits) if capped is not None else min(sum(limits), cap)).bit_length() // 8))
        if capped is not None and -(-low // digit) < -(-(low + 8 * top) // digit):
            top = 0  # no degree field where it would lengthen the longest key by an int digit
        self.variables, self.trunc, self._size = variables, trunc, top + places[-1]
        self._shifts, self._low, self._graded, self._mask = [8 * b for b in places[-2::-1]], low, top > 0, (1 << low) - 1
        if capped is None:
            self.weight, self._weigh = low.__rrshift__, sum
        else:
            shift, mask = self._shifts[capped], (1 << 8 * sizes[capped]) - 1
            self.weight = mask.__and__ if not shift else lambda key: key >> shift & mask
            self._weigh = itemgetter(capped)
        if by_struct:  # every field unpacked in C
            self._unpack = Struct(f">{top}x" + "".join("BHIQ"[size.bit_length() - 1] for size in sizes)).unpack
        else:
            spans = list(pairwise(accumulate(sizes, initial=top)))
            self._unpack = lambda key: tuple(int.from_bytes(key[lo:hi], "big") for lo, hi in spans)

    def pack(self, terms: Mapping[Exponent, int]) -> dict:
        """The in-bound terms of a term map, keyed by their packed exponents."""
        shifts, low, weigh, bound = self._shifts, self._low, self._weigh, self.bound
        if self._graded:
            return {sum(map(lshift, e, shifts)) + (sum(e) << low): c for e, c in terms.items() if weigh(e) < bound}
        return {sum(map(lshift, e, shifts)): c for e, c in terms.items() if weigh(e) < bound}

    def canonical(self, keys: Iterable[int]) -> list[int]:
        """Packed keys in canonical order, by one sort of ints: each key with
        its variables' fields complemented, below its total degree, which is
        read from the key's own field or, where it has none, summed."""
        flip = self._mask.__xor__
        if self._graded:
            return sorted(keys, key=flip)
        degrees = map(sum, self.exponents(keys))
        graded = sorted(map(or_, map(lshift, degrees, repeat(self._low)), map(flip, keys)))
        return list(map(flip, map(self._mask.__and__, graded)))

    def factor(self, packed: dict, bound: int | None = None) -> tuple:
        """A packed term map as the right factor of `_mul_into` below `bound`
        (by default the layout's): rows and weights ascending in the weight."""
        keys = sorted(packed, key=self.weight)
        weights = list(map(self.weight, keys))
        return [(e, packed[e]) for e in keys], weights, self.weight, self.bound if bound is None else bound

    def exponents(self, keys: Iterable[int]) -> Iterator[Exponent]:
        """The exponent tuples of packed keys, in their order."""
        return map(self._unpack, map(int.to_bytes, keys, repeat(self._size), repeat("big")))

    def unpacked(self, packed: dict) -> dict:
        """A packed term map keyed by exponent tuples, in order, in a fresh map."""
        return dict(zip(self.exponents(packed), packed.values()))

    def poly(self, domain: Domain, packed: dict) -> "SparsePoly":
        """An operation's packed result as a polynomial in this layout, reduced."""
        return SparsePoly._trusted(self.variables, domain, packed, layout=self)


@lru_cache(maxsize=256)
def _print_layout(variables: tuple[str, ...], bits: int) -> _Layout:
    """A layout for printing terms made outside any layout: each field holds
    `bits` bits, the exponents' largest."""
    return _Layout(variables, NO_TRUNCATION, [(1 << bits) - 1] * len(variables))


def _add_into(out: dict, terms: Mapping[Exponent, int], p: int | None) -> dict:
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
    stored again, so a map mostly reduced already hashes few keys."""
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
    """A sparse multivariate polynomial over a fixed domain and variable set.

    It holds one term map, fixed at construction: keyed by exponent tuples
    where its `_layout` is None, and otherwise, for a result of the ring's
    products, by the packed keys of the `_Layout` that made it.  The printed
    forms read packed keys."""

    __slots__ = ("variables", "domain", "_terms", "_layout")

    def __init__(self, variables: Sequence[str], domain: Domain, terms: Mapping[Exponent, int] | None = None):
        variables = tuple(variables)
        if not variables:
            raise StructuralError("variable set must be nonempty")
        if len(set(variables)) != len(variables):
            raise StructuralError(f"duplicate variable in {variables}")
        if bad := [v for v in variables if not _NAME_RE.fullmatch(v)]:
            raise StructuralError(f"invalid variable name {bad[0]!r}")
        clean: dict[Exponent, int] = {}
        for e, c in (terms or {}).items():
            e, c = _exponent(e, variables), domain.normalize(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_layout", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], domain: Domain, terms: dict, reduced: bool = False,
                 layout: _Layout | None = None) -> "SparsePoly":
        """A result of the ring's own arithmetic, right by construction but for
        its coefficients: `terms`, a dict no one else holds, is reduced mod p
        in place over F_p, zeros dropped, unless the caller has `reduced` it.
        With a `layout`, `terms` is keyed by that layout's packed keys."""
        if not reduced:
            _reduce(terms, domain.p)
        poly = object.__new__(cls)  # not through __init__: nothing to check
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "domain", domain)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_layout", layout)
        return poly

    @property
    def terms(self) -> dict[Exponent, int]:
        """The term map keyed by exponent tuples.  A packed result is unpacked
        into a fresh map at each read, in O(terms), and so at each call of
        `coefficient` and `==` on it."""
        return self._terms if self._layout is None else self._layout.unpacked(self._terms)

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
        return cls(variables, domain, {tuple(int(v == name) for v in variables): 1})

    # ---- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.variables, self.domain, self.terms) == (other.variables, other.domain, other.terms)

    __hash__ = None

    def coefficient(self, exponent: Exponent) -> int:
        """The coefficient of one monomial, 0 if absent; the exponent is
        checked as the constructor checks it."""
        return self.terms.get(_exponent(exponent, self.variables), 0)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in canonical graded-lex order."""
        return list(chain.from_iterable(zip(*block) for block in self._blocks()))

    def _blocks(self) -> Iterator[tuple[list[Exponent], list[int]]]:
        """The terms in canonical order, in blocks of _BLOCK exponent tuples
        and their coefficients.  The packed keys are sorted as ints, and only
        one block's are unpacked at a time; terms keyed by tuples are packed
        in a layout for printing first."""
        layout, packed = self._layout, self._terms
        if layout is None:
            layout = _print_layout(self.variables, max(map(max, packed), default=0).bit_length())
            packed = layout.pack(packed)
        keys = layout.canonical(packed)
        coefficients = list(map(packed.__getitem__, keys))
        for start in range(0, len(keys), _BLOCK):
            yield list(layout.exponents(keys[start : start + _BLOCK])), coefficients[start : start + _BLOCK]

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

    def _subtract_in_place(self, other: "SparsePoly") -> "SparsePoly":
        """self - other, made in self's packed term map with other packed into
        its layout: the one write to a made map, for a result no one else holds."""
        self._check_compatible(other)
        _add_into(self._terms, self._layout.pack((-other).terms), self.domain.p)
        return SparsePoly._trusted(self.variables, self.domain, self._terms, reduced=True, layout=self._layout)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._trusted(self.variables, self.domain, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def scale(self, c) -> "SparsePoly":
        c = self.domain.normalize(c)
        return SparsePoly._trusted(self.variables, self.domain, {e: v * c for e, v in self.terms.items()})

    def _degrees(self) -> list[int]:
        """The largest exponent of each variable, 0 where there is no term."""
        return [max(column) for column in zip(*self.terms)] or [0] * len(self.variables)

    def mul(self, other: "SparsePoly", trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """Product with every monomial whose weight reaches `trunc`'s bound
        dropped, formed packed in a fresh map and reduced once."""
        self._check_compatible(other)
        layout = _Layout(self.variables, trunc, map(add, self._degrees(), other._degrees()))
        product = _mul_into({}, layout.pack(self.terms).items(), layout.factor(layout.pack(other.terms)))
        return layout.poly(self.domain, product)

    def pow(self, exponent: int, trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """self^exponent modulo `trunc`.  Every power goes through `_powers`:
        the p-th power rule over F_p, consecutive products over Z."""
        if not _is_int(exponent) or exponent < 0:
            raise StructuralError(f"exponent must be a non-negative int, got {shown(exponent)}")
        layout = _Layout(self.variables, trunc, [exponent * d for d in self._degrees()])
        return layout.poly(self.domain, self._powers(layout)(exponent))

    def _power_terms(self, trunc: TruncationPolicy, count: int) -> list[dict]:
        """The term maps of self^0 .. self^(count - 1) modulo `trunc`."""
        layout = _Layout(self.variables, trunc, [(count - 1) * d for d in self._degrees()])
        return [layout.unpacked(packed) for packed in map(self._powers(layout), range(count))]

    def _powers(self, layout: _Layout):
        """The map k -> self^k packed in `layout`, for every k its degrees
        allow.  Each bound b keeps a chain of products from self^0 = 1, cut
        once; over Z self^k is its k-th entry.  Over F_p the chain stops below
        p, and self^k below b is the twist of self^(k // p) below ceil(b / p)
        (each key times p) times self^(k mod p): k is walked down to a power
        made, or below p, then built up.  A power returned may be one kept
        for further powers: a caller changes it only once it takes none."""
        p, chains, factors, made = self.domain.p, {}, {}, {}
        rows, weights, weight, _ = layout.factor(layout.pack(self.terms))
        one = layout.pack(SparsePoly.one(self.variables, self.domain).truncate(layout.trunc).terms)

        def chain(b, d: int) -> dict:
            powers = chains.setdefault(b, [one])
            while len(powers) <= d:
                right = (rows, weights, weight, layout.bound if b is None else b)
                powers.append(_reduce(_mul_into({}, powers[-1].items(), right), p))
            return powers[d]

        def power(k: int) -> dict:
            b, walk = layout.trunc.bound, []
            while p and k >= p and (b, k) not in made:
                walk.append((b, k))
                b, k = None if b is None else -(-b // p), k // p
            out = made[b, k] if (b, k) in made else chain(b, k)
            for b, k in reversed(walk):
                out = {p * e: c for e, c in out.items()}
                if k % p:
                    if (b, k % p) not in factors:
                        factors[b, k % p] = layout.factor(chain(b, k % p), b)
                    out = _reduce(_mul_into({}, out.items(), factors[b, k % p]), p)
                made[b, k] = out
            return made.pop(walk[0]) if walk else out  # only the powers on the way are kept

        return power

    def truncate(self, trunc: TruncationPolicy) -> "SparsePoly":
        """The monomials `trunc` allows: the product with 1, through mul's own test."""
        return self.mul(SparsePoly.one(self.variables, self.domain), trunc)

    def substitute(self, assignment: Mapping[str, SparsePoly], trunc: TruncationPolicy = NO_TRUNCATION) -> "SparsePoly":
        """Evaluate this polynomial at the assignment, truncating every product.

        The assignment must cover exactly the variables of this polynomial.
        All images live in one variable set over the same domain, which may
        differ from this polynomial's own (the slots of a formal group law
        template get bound to polynomials in the ambient variables).
        """
        if missing := [v for v in self.variables if v not in assignment]:
            raise StructuralError(f"assignment misses variables {missing}")
        if extra := [v for v in assignment if v not in self.variables]:
            raise StructuralError(f"assignment binds unknown variables {extra}")
        first, *others = images = [assignment[v] for v in self.variables]
        for img in others:
            first._check_compatible(img)
        if first.domain != self.domain:
            raise StructuralError(f"image domain {first.domain} differs from template domain {self.domain}")

        # one layout, by the images' degrees times the template's; img^k for
        # each exponent k of each variable, made once, truncated and sorted as
        # a factor; each image's power map is dropped before the products
        used = [set(column) for column in zip(*self.terms)]  # the template's exponents by variable
        degrees = [0] * len(first.variables)
        for ks, img in zip(used, images):
            degrees = [d + max(ks) * g for d, g in zip(degrees, img._degrees())]
        layout = _Layout(first.variables, trunc, degrees)
        powers = [{k: layout.factor(power(k)) for k in ks}
                  for ks, power in zip(used, (img._powers(layout) for img in images))]

        # the last factor of each term is multiplied straight into out, scaled
        # by the term's coefficient; out is reduced once, at the end.  The
        # template is unpacked as it is read: no tuple map of it is held as out grows
        exponents = self._terms if self._layout is None else self._layout.exponents(self._terms)
        out: dict[int, int] = {}
        for e, c in zip(exponents, self._terms.values()):
            *head, last = [powers[i][k] for i, k in enumerate(e) if k] or [powers[0][0]]
            term = head[0][0] if head else [(0, 1)]
            for factor in head[1:]:
                term = _reduce(_mul_into({}, term, factor), first.domain.p).items()
            _mul_into(out, term, last, c)
        return layout.poly(first.domain, out)

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
        pieces of _BLOCK terms (`_blocks`); `to_text` is their join.  Only a
        head ' + c' or ' - c' per distinct coefficient runs in Python.  Each
        block is built by columns of C-level maps: the heads, and per variable
        its factors '*v^k'; zipped, each term is one join.  A coefficient 1 is
        dropped by replacing ' + 1*' and ' - 1*': no monomial holds a space."""
        heads: dict[int, str] = {}
        factors = [_Factors({0: "", 1: f"*{v}"}) for v in self.variables]
        first = True
        for exponents, coefficients in self._blocks():
            heads.update((c, f" - {-c}" if c < 0 else f" + {c}") for c in set(coefficients) - heads.keys())
            columns = [map(f.__getitem__, map(itemgetter(i), exponents)) for i, f in enumerate(factors)]
            text = "".join(map("".join, zip(map(heads.__getitem__, coefficients), *columns)))
            text = text.replace(" + 1*", " + ").replace(" - 1*", " - ")
            yield text if not first else text[3:] if text[1] == "+" else "-" + text[3:]
            first = False
        if first:
            yield "0"

    def to_text(self) -> str:
        return "".join(self.text_blocks())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SparsePoly({self.to_text()!r}, vars={self.variables}, domain={self.domain})"

    def to_json_dict(self) -> dict:
        # each exponent without its trailing zeros, scanned for them only where it ends in 0
        terms = [{"e": list(e) if e[-1] else list(e[: max((i + 1 for i, k in enumerate(e) if k), default=0)]),
                  "c": str(c)} for exponents, coefficients in self._blocks() for e, c in zip(exponents, coefficients)]
        return {"vars": list(self.variables), "domain": self.domain.to_json_dict(), "terms": terms}


def elementary_symmetric_all(values: Sequence[SparsePoly], trunc: TruncationPolicy = NO_TRUNCATION) -> list[SparsePoly]:
    """All sigma_0 .. sigma_m of the given polynomials (sigma_0 = 1 truncated:
    0 under a bound 0).

    Computed through the generating function prod_j (1 + z*v_j): one packed
    term map per sigma_k, in one layout.  For each v, packed and sorted once,
    k runs from the top down, so sigma_(k-1) * v, truncated, is added
    straight into sigma_k's map before sigma_(k-1) changes; each map is
    reduced once per factor, and the sigmas are returned packed."""
    values = list(values)
    if not values:
        raise StructuralError("need at least one value")
    first = values[0]
    for v in values[1:]:
        first._check_compatible(v)
    variables, domain = first.variables, first.domain
    layout = _Layout(variables, trunc, map(sum, zip(*(v._degrees() for v in values))))
    sig = [layout.pack({(0,) * len(variables): 1})]
    for v in values:
        right = layout.factor(layout.pack(v.terms))
        sig.append({})
        for k in range(len(sig) - 1, 0, -1):
            _reduce(_mul_into(sig[k], sig[k - 1].items(), right), domain.p)
    return [SparsePoly._trusted(variables, domain, s, reduced=True, layout=layout) for s in sig]
