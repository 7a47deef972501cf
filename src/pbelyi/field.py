"""Exact arithmetic in F_{p^n} for odd primes p.

A field is described by (p, n, modulus).  The modulus is a monic irreducible
polynomial over F_p stored little-endian (constant term first).  For given
(p, n) the canonical modulus is the monic irreducible of degree n whose
coefficient vector, read as a base-p integer with higher powers more
significant, is smallest; that makes field construction reproducible with no
lookup tables.  Elements are reduced coordinate vectors in the power basis,
so equality is coefficient-wise.  Everything here is immutable and hashable,
and no floating point is used anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .errors import PreconditionError

IntPoly = Tuple[int, ...]  # little-endian coefficients over F_p


# ---------------------------------------------------------------------------
# primality

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the fixed witness set covers n < 3.3e24)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (plain int tuples, little-endian).
# These serve modulus arithmetic only; general polynomials over F_{p^n}
# live in poly.py.


def _trim(c: Sequence[int]) -> IntPoly:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a: IntPoly, b: IntPoly, p: int) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, cb in enumerate(b):
        out[i] = (out[i] + cb) % p
    return _trim(out)


def _pneg(a: IntPoly, p: int) -> IntPoly:
    return tuple((-c) % p for c in a)


def _pmul(a: IntPoly, b: IntPoly, p: int) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _pdivmod(a: IntPoly, b: IntPoly, p: int) -> Tuple[IntPoly, IntPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            q = c * inv_lead % p
            quo[i - db] = q
            for j, cb in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - q * cb) % p
    return _trim(quo), _trim(rem)


def _pgcd(a: IntPoly, b: IntPoly, p: int) -> IntPoly:
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _pext_gcd(a: IntPoly, b: IntPoly, p: int) -> Tuple[IntPoly, IntPoly, IntPoly]:
    """Return (g, u, v) with u*a + v*b = g and g monic."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1, p), p), p)
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1, p), p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        scale = (inv,)
        r0 = _pmul(r0, scale, p)
        s0 = _pmul(s0, scale, p)
        t0 = _pmul(t0, scale, p)
    return r0, s0, t0


def _ppowmod(base: IntPoly, e: int, mod: IntPoly, p: int) -> IntPoly:
    result: IntPoly = (1,)
    base = _pdivmod(base, mod, p)[1]
    while e > 0:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _prime_divisors(n: int) -> List[int]:
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            if is_prime(n):  # a prime cofactor ends the search at once
                break
        d += 1
    if n > 1:
        out.append(n)
    return out


def _int_root(x: int, n: int) -> int:
    """The integer part of the n-th root of x >= 0, by Newton's method from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> Tuple[int, int]:
    """(p, n) with q = p**n for an odd prime p; PreconditionError otherwise.

    The largest n with q an exact n-th power is the exponent, so no
    trial division is needed.
    """
    if isinstance(q, int) and not isinstance(q, bool) and q >= 3 and q % 2:
        for n in range(q.bit_length(), 0, -1):
            r = _int_root(q, n)
            if r ** n == q:
                if is_prime(r):
                    return r, n
                break
    raise PreconditionError("q must be an odd prime power, got %r" % (q,))


def digits(k: int, base: int, count: int) -> List[int]:
    """The count lowest base-`base` digits of k (mod base**count), least significant first."""
    out = []
    for _ in range(count):
        k, r = divmod(k, base)
        out.append(r)
    return out


def _pirreducible(f: IntPoly, p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p."""
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x: IntPoly = (0, 1)
    if _ppowmod(x, p ** m, f, p) != _pdivmod(x, f, p)[1]:
        return False
    for ell in _prime_divisors(m):
        h = _padd(_ppowmod(x, p ** (m // ell), f, p), _pneg(x, p), p)
        if _pgcd(h, f, p) != (1,):
            return False
    return True


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, n: int) -> IntPoly:
    if n == 1:
        return (0, 1)
    for k in range(p ** n):
        f = tuple(digits(k, p, n)) + (1,)
        if _pirreducible(f, p):
            return f
    raise PreconditionError(f"no irreducible polynomial of degree {n} over F_{p}")


# ---------------------------------------------------------------------------


class FiniteField:
    """The field with p**n elements, p an odd prime."""

    __slots__ = ("p", "n", "modulus", "_hash")

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] = None):
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionError(f"characteristic must be prime, got {p}")
        if p == 2:
            raise PreconditionError("characteristic 2 is not supported")
        if not isinstance(n, int) or n < 1:
            raise PreconditionError(f"extension degree must be a positive integer, got {n}")
        self.p = p
        self.n = n
        if modulus is None:
            self.modulus = _canonical_modulus(p, n)
        else:
            mod = _trim([c % p for c in modulus])
            if len(mod) != n + 1 or mod[-1] != 1:
                raise PreconditionError(f"modulus must be monic of degree {n}")
            if not _pirreducible(mod, p):
                raise PreconditionError("modulus is reducible over the prime field")
            self.modulus = mod
        self._hash = hash((self.p, self.n, self.modulus))

    # -- descriptor protocol

    @property
    def q(self) -> int:
        return self.p ** self.n

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteField({self})"

    def __str__(self) -> str:
        base = str(self.p) if self.n == 1 else f"{self.p}^{self.n}"
        if self.modulus == _canonical_modulus(self.p, self.n):
            return base
        return base + "/" + ",".join(str(c) for c in self.modulus)

    # -- element construction

    def element(self, value: Union[int, "FieldElement", Iterable[int]]) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise PreconditionError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coords = [value % self.p] + [0] * (self.n - 1)
            return FieldElement(self, tuple(coords))
        coords = [int(c) % self.p for c in value]
        if len(coords) > self.n:
            raise PreconditionError(
                f"coordinate vector of length {len(coords)} exceeds degree {self.n}"
            )
        coords += [0] * (self.n - len(coords))
        return FieldElement(self, tuple(coords))

    __call__ = element

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.n)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def gen(self) -> "FieldElement":
        """The class of x modulo the modulus (zero in a prime field)."""
        if self.n == 1:
            return self.zero
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2))

    def elements(self) -> Iterator["FieldElement"]:
        """All elements, ordered by base-p value of the coordinate vector."""
        for k in range(self.q):
            yield self.from_int_value(k)

    def from_int_value(self, k: int) -> "FieldElement":
        """The element whose coordinate vector has base-p value k (mod q)."""
        return FieldElement(self, tuple(digits(k, self.p, self.n)))

    # -- internal reduction

    def _reduce(self, coeffs: IntPoly) -> Tuple[int, ...]:
        if len(coeffs) > self.n:
            coeffs = _pdivmod(coeffs, self.modulus, self.p)[1]
        return tuple(coeffs) + (0,) * (self.n - len(coeffs))


class FieldElement:
    """An element of a FiniteField; coords are reduced mod the modulus."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: Tuple[int, ...]):
        self.field = field
        self.coords = coords

    # -- basic protocol

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"<{self} in F({self.field})>"

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __bool__(self) -> bool:
        return any(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def int_value(self) -> int:
        """Base-p value of the coordinate vector; the canonical element order."""
        v = 0
        for c in reversed(self.coords):
            v = v * self.field.p + c
        return v

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise PreconditionError("elements of different fields")

    def __lt__(self, other: "FieldElement") -> bool:
        self._check(other)
        return self.int_value < other.int_value

    def __le__(self, other: "FieldElement") -> bool:
        self._check(other)
        return self.int_value <= other.int_value

    # -- arithmetic

    def __add__(self, other):
        other = self.field.element(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coords))

    def __sub__(self, other):
        other = self.field.element(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        return self.field.element(other) - self

    def __mul__(self, other):
        other = self.field.element(other)
        fld = self.field
        if fld.n == 1:
            return FieldElement(fld, ((self.coords[0] * other.coords[0]) % fld.p,))
        prod = _pmul(_trim(self.coords), _trim(other.coords), fld.p)
        return FieldElement(fld, fld._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        fld = self.field
        if fld.n == 1:
            return FieldElement(fld, (pow(self.coords[0], fld.p - 2, fld.p),))
        g, u, _ = _pext_gcd(_trim(self.coords), fld.modulus, fld.p)
        if g != (1,):
            raise ZeroDivisionError("element is not invertible")
        return FieldElement(fld, fld._reduce(u))

    def __truediv__(self, other):
        other = self.field.element(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


# ---------------------------------------------------------------------------
# Frobenius and Galois orbits


def frobenius(a: FieldElement, iterations: int = 1) -> FieldElement:
    """Apply x -> x**p the given number of times (repeated p-th powering)."""
    if iterations < 0:
        raise PreconditionError("iteration count must be non-negative")
    p = a.field.p
    for _ in range(iterations):
        a = a ** p
    return a


def galois_orbit(a: FieldElement, base: FiniteField) -> Tuple[FieldElement, ...]:
    """Orbit of a under x -> x**q, q = |base|; base must sit inside a's field."""
    if base.p != a.field.p:
        raise PreconditionError("base field has a different characteristic")
    if a.field.n % base.n != 0:
        raise PreconditionError(
            f"F_{base.p}^{base.n} is not a subfield of F_{a.field.p}^{a.field.n}"
        )
    orbit = [a]
    current = frobenius(a, base.n)
    while current != a:
        orbit.append(current)
        current = frobenius(current, base.n)
    return tuple(sorted(orbit, key=lambda e: e.int_value))


# ---------------------------------------------------------------------------
# subfield embeddings


class EmbeddingMap:
    """A field homomorphism F_{p^a} -> F_{p^b} fixed by its generator image."""

    __slots__ = ("source", "target", "image_of_generator", "_powers")

    def __init__(self, source: FiniteField, target: FiniteField, image_of_generator: FieldElement):
        self.source = source
        self.target = target
        self.image_of_generator = image_of_generator
        powers = [target.one]
        for _ in range(source.n - 1):
            powers.append(powers[-1] * image_of_generator)
        self._powers = powers

    def __call__(self, a: FieldElement) -> FieldElement:
        if a.field != self.source:
            raise PreconditionError("element is not in the embedding's source field")
        acc = self.target.zero
        for c, w in zip(a.coords, self._powers):
            if c:
                acc = acc + w * c
        return acc

    def __repr__(self) -> str:
        return f"EmbeddingMap({self.source} -> {self.target})"

    def compose(self, inner: "EmbeddingMap") -> "EmbeddingMap":
        """The embedding self . inner along a tower."""
        if inner.target != self.source:
            raise PreconditionError("embeddings do not chain")
        return EmbeddingMap(inner.source, self.target, self(inner.image_of_generator))

    def section(self, a: FieldElement) -> FieldElement:
        """Pull a back to the source field; error if it is not in the image."""
        if a.field != self.target:
            raise PreconditionError("element is not in the embedding's target field")
        p = self.source.p
        b = self.target.n
        cols = [self._powers[i].coords for i in range(self.source.n)]
        # Solve sum_i x_i * cols[i] = a.coords over F_p by Gaussian elimination.
        rows = b
        aug = [[cols[i][r] for i in range(self.source.n)] + [a.coords[r]] for r in range(rows)]
        ncols = self.source.n
        pivots = []
        row = 0
        for col in range(ncols):
            sel = None
            for r in range(row, rows):
                if aug[r][col] % p:
                    sel = r
                    break
            if sel is None:
                continue
            aug[row], aug[sel] = aug[sel], aug[row]
            inv = pow(aug[row][col], p - 2, p)
            aug[row] = [(v * inv) % p for v in aug[row]]
            for r in range(rows):
                if r != row and aug[r][col] % p:
                    fac = aug[r][col]
                    aug[r] = [(v - fac * w) % p for v, w in zip(aug[r], aug[row])]
            pivots.append(col)
            row += 1
        for r in range(row, rows):
            if aug[r][ncols] % p:
                raise PreconditionError("element does not descend to the source field")
        sol = [0] * ncols
        for r, col in enumerate(pivots):
            sol[col] = aug[r][ncols]
        out = self.source.element(sol)
        if self(out) != a:
            raise PreconditionError("element does not descend to the source field")
        return out


def embed(source: FiniteField, target: FiniteField) -> EmbeddingMap:
    """Deterministic embedding: the generator maps to the lexicographically
    smallest root (by coordinate sequence) of the source modulus in target."""
    if source.p != target.p:
        raise PreconditionError("fields have different characteristics")
    if target.n % source.n != 0:
        raise PreconditionError(
            f"degree {source.n} does not divide {target.n}; no embedding exists"
        )
    if source.n == 1:
        return EmbeddingMap(source, target, target.zero)
    if source == target:
        return EmbeddingMap(source, target, target.gen)
    from .poly import Polynomial
    from .factor import split_root

    # the source modulus splits in target into one orbit under x -> x**p
    orbit = [split_root(Polynomial(target, [target.element(c) for c in source.modulus]))]
    for _ in range(source.n - 1):
        orbit.append(frobenius(orbit[-1]))
    return EmbeddingMap(source, target, min(orbit, key=lambda e: e.coords))


# ---------------------------------------------------------------------------
# text formats: fields "p^n" or "p^n/c0,c1,...", elements "c0,c1,..."


def parse_field(text: str) -> FiniteField:
    text = text.strip()
    mod = None
    if "/" in text:
        text, modtext = text.split("/", 1)
        mod = [int(c) for c in modtext.split(",")]
    if "^" in text:
        p_str, n_str = text.split("^", 1)
        p, n = int(p_str), int(n_str)
    else:
        p, n = int(text), 1
    return FiniteField(p, n, mod)


def parse_element(field: FiniteField, text: str) -> FieldElement:
    coords = [int(c) for c in text.strip().split(",")]
    if any(not 0 <= c < field.p for c in coords):
        raise PreconditionError(f"element {text.strip()!r} has a coordinate outside [0, {field.p})")
    return field.element(coords)
