"""Dense univariate polynomials over a finite field.

Coefficients are stored as the field's element values, little-endian with
trailing zeros stripped (field._trim), so the zero polynomial has an empty
value tuple and degree -1.  The multiply, divmod, powmod, the Euclid of gcd
(field._euclid) and the extended Euclid of inverse_mod (field._ext_gcd) run on
the value tuples in the polynomial kernel that the field bound when it was
made, so no method here asks which field it is over; every other method goes
through the field's value ops.  Powers run field._pow_by_squaring and
evaluation runs value_at, the one Horner loop on element values, which the
search and the point counts share.  coeffs, coeff(i) and leading build
FieldElement views on access.  Polynomials are immutable and hashable;
arithmetic never mutates.
"""

from __future__ import annotations

import operator
from math import comb
from typing import Iterable, Sequence, Tuple

from .errors import PreconditionError
from .field import FieldElement, FiniteField, _derivative, _euclid, _ext_gcd, _pow_by_squaring, _trim, parse_element


def value_at(field: FiniteField, vals: Sequence, d: int, x):
    """The value at x of the polynomial with these values, or its x^d coefficient when x is None.

    For f = N/D of degree d, f(inf) is the quotient of the x^d coefficients.
    """
    if x is None:
        return vals[d] if len(vals) > d else field.zero_value
    add, mul = field.add, field.mul
    acc = field.zero_value
    for c in reversed(vals):
        acc = add(mul(acc, x), c)
    return acc


class Polynomial:
    __slots__ = ("field", "values")

    def __init__(self, field: FiniteField, coeffs: Iterable = ()):
        """Coefficients are ints (prime-field constants), elements of field or coordinate sequences."""
        self.field = field
        self.values = _trim([field.value_of(c) for c in coeffs], field.zero_value)

    # -- constructors

    @classmethod
    def _from_values(cls, field: FiniteField, vals: Sequence) -> "Polynomial":
        """The polynomial with these element values, trailing zeros allowed."""
        out = cls.__new__(cls)
        out.field, out.values = field, _trim(vals, field.zero_value)
        return out

    @classmethod
    def _from_trimmed(cls, field: FiniteField, vals: Tuple) -> "Polynomial":
        """The polynomial with this value tuple, which has no trailing zeros."""
        out = cls.__new__(cls)
        out.field, out.values = field, vals
        return out

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
    def coeffs(self) -> Tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.values)

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def is_constant(self) -> bool:
        return len(self.values) <= 1

    @property
    def leading(self) -> FieldElement:
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.values[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.values) and self.values[-1] == self.field.one_value

    def coeff(self, i: int) -> FieldElement:
        return FieldElement(self.field, self.values[i]) if 0 <= i < len(self.values) else self.field.zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.values == other.values
        )

    def __hash__(self) -> int:
        # each (field, coords) pair hashes as the FieldElement it stands for
        fld = self.field
        return hash((fld, tuple((fld, fld.coords(v)) for v in self.values)))

    def __bool__(self) -> bool:
        return bool(self.values)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        coords = self.field.coords
        return (";" if self.field.n > 1 else ",").join(",".join(map(str, coords(v))) for v in self.values)

    def __repr__(self) -> str:
        return f"Polynomial({self.field}; {self})"

    def sort_key(self) -> Tuple:
        """Deterministic order: by degree, then coefficient values low to high."""
        code = self.field.code
        return (self.degree, tuple(code(v) for v in self.values))

    # -- arithmetic

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise PreconditionError("polynomials over different fields")
            return other
        return Polynomial(self.field, [other])

    def __add__(self, other):
        add = self.field.add
        a, b = self.values, self._coerce(other).values
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Polynomial._from_values(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Polynomial._from_values(self.field, [neg(c) for c in self.values])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        fld = self.field
        if isinstance(other, (FieldElement, int)):
            mul, c = fld.mul, fld.value_of(other)
            return Polynomial._from_values(fld, [mul(a, c) for a in self.values])
        return Polynomial._from_trimmed(fld, fld.pmul(self.values, self._coerce(other).values))

    __rmul__ = __mul__

    def __divmod__(self, other):
        fld = self.field
        quo, rem = fld.pdivmod(self.values, self._coerce(other).values)
        return Polynomial._from_trimmed(fld, quo), Polynomial._from_trimmed(fld, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise PreconditionError("negative polynomial power")
        return _pow_by_squaring(operator.mul, Polynomial.one(self.field), self, e)

    def powmod(self, e: int, mod: "Polynomial") -> "Polynomial":
        if e < 0:
            raise PreconditionError("negative polynomial power")
        fld = self.field
        return Polynomial._from_trimmed(fld, fld.ppowmod(self.values, e, self._coerce(mod).values))

    def monic(self) -> "Polynomial":
        if self.is_zero or self.is_monic:
            return self
        fld = self.field
        mul, inv = fld.mul, fld.inv(self.values[-1])
        return Polynomial._from_values(fld, [mul(c, inv) for c in self.values])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        fld = self.field
        return Polynomial._from_trimmed(fld, _euclid(fld, self.values, self._coerce(other).values)).monic()

    def inverse_mod(self, mod: "Polynomial") -> "Polynomial":
        """The u with u*self = 1 modulo mod, by extended Euclid, for self prime to mod."""
        fld = self.field
        mod = self._coerce(mod)
        g, u = _ext_gcd(fld, (self % mod).values, mod.values)
        if g != (fld.one_value,):
            raise PreconditionError("polynomial is not a unit modulo the modulus")
        return Polynomial._from_trimmed(fld, u)

    def derivative(self) -> "Polynomial":
        return Polynomial._from_trimmed(self.field, _derivative(self.field, self.values))

    def hasse_derivative(self, j: int) -> "Polynomial":
        """The j-th Hasse derivative sum C(i, j) a_i x^(i - j), for j >= 0.

        Its value at a point a is the x^j coefficient of the Taylor expansion
        self(a + x), also where p divides j!, which the j-th derivative loses.
        """
        fld = self.field
        mul, from_code, zero, p = fld.mul, fld.from_code, fld.zero_value, fld.p
        return Polynomial._from_values(fld, [
            mul(c, from_code(comb(i, j) % p)) if c != zero else zero  # skips comb on sparse maps
            for i, c in enumerate(self.values[j:], j)
        ])

    def evaluate(self, x: FieldElement) -> FieldElement:
        fld = self.field
        return FieldElement(fld, value_at(fld, self.values, self.degree, fld.value_of(x)))

    __call__ = evaluate

    def compose(self, inner: "Polynomial") -> "Polynomial":
        inner = self._coerce(inner)
        acc = Polynomial(self.field)
        for c in reversed(self.values):
            acc = acc * inner + Polynomial._from_values(self.field, (c,))
        return acc

    def map_coefficients(self, embedding) -> "Polynomial":
        """Coefficient-wise push through an EmbeddingMap."""
        if embedding.source != self.field:
            raise PreconditionError("embedding does not start at the polynomial's field")
        image = embedding.image_value
        return Polynomial._from_values(embedding.target, [image(c) for c in self.values])

    def reverse(self, at_degree: int = None) -> "Polynomial":
        """Coefficient reversal x**m * f(1/x) for m = at_degree (default deg f)."""
        m = self.degree if at_degree is None else at_degree
        if m < self.degree:
            raise PreconditionError("reversal degree below polynomial degree")
        out = [self.field.zero_value] * (m + 1)
        for i, c in enumerate(self.values):
            out[m - i] = c
        return Polynomial._from_values(self.field, out)


def parse_poly(field: FiniteField, text: str) -> Polynomial:
    """Inverse of str(): coefficients separated by ',' (';' when n > 1)."""
    text = text.strip()
    if text in ("", "0"):
        return Polynomial(field)
    sep = ";" if field.n > 1 else ","
    return Polynomial(field, [parse_element(field, part) for part in text.split(sep)])
