"""Dense univariate polynomials over a finite field.

Coefficients are stored little-endian with trailing zeros stripped, so the
zero polynomial has an empty coefficient tuple and degree -1.  Polynomials
are immutable and hashable; arithmetic never mutates.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from .errors import PreconditionError
from .field import FieldElement, FiniteField, parse_element


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: Iterable = ()):
        elems: List[FieldElement] = [field.element(c) for c in coeffs]
        while elems and elems[-1].is_zero:
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

    # -- constructors

    @classmethod
    def x(cls, field: FiniteField) -> "Polynomial":
        return cls(field, [0, 1])

    @classmethod
    def one(cls, field: FiniteField) -> "Polynomial":
        return cls(field, [1])

    @classmethod
    def constant(cls, field: FiniteField, c) -> "Polynomial":
        return cls(field, [c])

    @classmethod
    def from_roots(cls, field: FiniteField, roots: Iterable) -> "Polynomial":
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, [-field.element(r), field.one])
        return out

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> FieldElement:
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return ";".join(str(c) for c in self.coeffs) if self.field.n > 1 else ",".join(
            str(c) for c in self.coeffs
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.field}; {self})"

    def sort_key(self) -> Tuple:
        """Deterministic order: by degree, then coefficient values low to high."""
        return (self.degree, tuple(c.int_value for c in self.coeffs))

    # -- arithmetic

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise PreconditionError("polynomials over different fields")
            return other
        return Polynomial(self.field, [other])

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.field.element(other)
            return Polynomial(self.field, [a * c for a in self.coeffs])
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return Polynomial(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca.is_zero:
                continue
            for j, cb in enumerate(other.coeffs):
                if not cb.is_zero:
                    out[i + j] = out[i + j] + ca * cb
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = other.leading.inverse()
        rem = list(self.coeffs)
        db = other.degree
        if len(rem) <= db:
            return Polynomial(self.field), self
        quo = [self.field.zero] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if not c.is_zero:
                qc = c * inv_lead
                quo[i - db] = qc
                for j, cb in enumerate(other.coeffs):
                    rem[i - db + j] = rem[i - db + j] - qc * cb
        return Polynomial(self.field, quo), Polynomial(self.field, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise PreconditionError("negative polynomial power")
        result = Polynomial.one(self.field)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def powmod(self, e: int, mod: "Polynomial") -> "Polynomial":
        result = Polynomial.one(self.field) % mod
        base = self % mod
        while e > 0:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        if self.is_zero or self.is_monic:
            return self
        inv = self.leading.inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, self._coerce(other)
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Polynomial":
        return Polynomial(
            self.field, [c * i for i, c in enumerate(self.coeffs)][1:]
        )

    def evaluate(self, x: FieldElement) -> FieldElement:
        x = self.field.element(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def compose(self, inner: "Polynomial") -> "Polynomial":
        inner = self._coerce(inner)
        acc = Polynomial(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def map_coefficients(self, embedding) -> "Polynomial":
        """Coefficient-wise push through an EmbeddingMap."""
        return Polynomial(embedding.target, [embedding(c) for c in self.coeffs])

    def reverse(self, at_degree: int = None) -> "Polynomial":
        """Coefficient reversal x**m * f(1/x) for m = at_degree (default deg f)."""
        m = self.degree if at_degree is None else at_degree
        if m < self.degree:
            raise PreconditionError("reversal degree below polynomial degree")
        out = [self.field.zero] * (m + 1)
        for i, c in enumerate(self.coeffs):
            out[m - i] = c
        return Polynomial(self.field, out)

    def root_multiplicity(self, r: FieldElement) -> int:
        """Multiplicity of x = r as a root, by repeated synthetic division."""
        r = self.field.element(r)
        if self.is_zero:
            raise PreconditionError("every point is a root of the zero polynomial")
        count = 0
        current = list(self.coeffs)
        while True:
            # synthetic division of current by (x - r)
            quo = [self.field.zero] * (len(current) - 1)
            acc = self.field.zero
            for i in range(len(current) - 1, 0, -1):
                acc = acc * r + current[i]
                quo[i - 1] = acc
            remainder = acc * r + current[0]
            if not remainder.is_zero:
                return count
            count += 1
            if len(quo) == 0:
                return count
            current = quo


def parse_poly(field: FiniteField, text: str) -> Polynomial:
    """Inverse of str(): coefficients separated by ',' (';' when n > 1)."""
    text = text.strip()
    if text in ("", "0"):
        return Polynomial(field)
    sep = ";" if field.n > 1 else ","
    return Polynomial(field, [parse_element(field, part) for part in text.split(sep)])
