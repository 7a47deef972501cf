"""Rational self-maps of the projective line over a finite field.

A map is a reduced fraction num/den with monic denominator, so equality is
coefficient equality.  Points of P^1 are field elements plus one distinguished
infinity per field.  Evaluation, composition, Moebius maps, derivatives and
the separability test (nonvanishing Wronskian) live here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .errors import InternalInconsistencyError, PreconditionError
from .field import EmbeddingMap, FieldElement, FiniteField, parse_element
from .poly import Polynomial, parse_poly


class P1Point:
    """A point of P^1(F): an affine field element or infinity."""

    __slots__ = ("field", "value")

    def __init__(self, field: FiniteField, value: Optional[FieldElement]):
        if value is not None:
            value = field.element(value)
        self.field = field
        self.value = value

    @classmethod
    def of(cls, value: FieldElement) -> "P1Point":
        return cls(value.field, value)

    @classmethod
    def infinity(cls, field: FiniteField) -> "P1Point":
        return cls(field, None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, P1Point)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return f"P1({self})"

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def sort_key(self) -> Tuple[int, int]:
        """Affine points by element order, infinity last."""
        if self.is_infinity:
            return (1, 0)
        return (0, self.value.int_value)

    def embedded(self, eps: EmbeddingMap) -> "P1Point":
        if self.is_infinity:
            return P1Point.infinity(eps.target)
        return P1Point(eps.target, eps(self.value))


def three_points(field: FiniteField) -> Tuple[P1Point, P1Point, P1Point]:
    """The points 0, 1 and infinity of P^1(F), in that order."""
    return (P1Point(field, field.zero), P1Point(field, field.one), P1Point.infinity(field))


def p1_points(field: FiniteField) -> Tuple[P1Point, ...]:
    """All of P^1(F) in canonical order (affine ascending, infinity last)."""
    return tuple(p1_points_outside(field))


def p1_points_outside(field: FiniteField, forbidden=()) -> Iterator[P1Point]:
    """The points of P^1(F) outside `forbidden`, lazily, in canonical order.

    A caller that takes the first few points of a large field pays for those
    few, not for the whole line.
    """
    forbidden = set(forbidden)
    for a in field.elements():
        pt = P1Point(field, a)
        if pt not in forbidden:
            yield pt
    inf = P1Point.infinity(field)
    if inf not in forbidden:
        yield inf


class RationalMap:
    """A non-degenerate rational map P^1 -> P^1, stored reduced and monic."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.field != den.field:
            raise PreconditionError("numerator and denominator over different fields")
        if den.is_zero:
            raise PreconditionError("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        # normalize: monic denominator
        if not den.is_monic:
            lead_inv = den.leading.inverse()
            num, den = num * lead_inv, den * lead_inv
        self.field = num.field
        self.num = num
        self.den = den

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "RationalMap":
        return cls(f, Polynomial.one(f.field))

    @classmethod
    def identity(cls, field: FiniteField) -> "RationalMap":
        return cls.from_polynomial(Polynomial.x(field))

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def is_constant(self) -> bool:
        return self.degree < 1

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMap)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial:
            return f"poly={self.num}"
        return f"num={self.num}/den={self.den}"

    def __repr__(self) -> str:
        return f"RationalMap({self.field}; {self})"

    # -- evaluation

    def evaluate(self, point: P1Point) -> P1Point:
        """Value at a point of P^1 over self.field; map_coefficients(eps) serves an extension."""
        if point.field != self.field:
            raise PreconditionError("point lies in a different field; map the coefficients first")
        if point.is_infinity:
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return P1Point.infinity(self.field)
            if dn < dd:
                return P1Point(self.field, self.field.zero)
            return P1Point(self.field, self.num.leading / self.den.leading)
        top = self.num(point.value)
        bottom = self.den(point.value)
        if bottom.is_zero:
            # reduced fraction: num and den share no root in any extension
            return P1Point.infinity(self.field)
        return P1Point(self.field, top / bottom)

    def __call__(self, point: P1Point) -> P1Point:
        return self.evaluate(point)

    # -- algebra

    def compose(self, inner: "RationalMap") -> "RationalMap":
        """The map self(inner(x))."""
        if inner.field != self.field:
            raise PreconditionError("maps over different fields")
        top, bottom = homogenize((self.num, self.den), inner.num, inner.den, self.degree)
        if bottom.is_zero:
            raise PreconditionError("composition is degenerate (constant inner map)")
        return RationalMap(top, bottom)

    def derivative(self) -> "RationalMap":
        """The formal derivative (u'v - uv')/v^2, reduced."""
        w = wronskian(self)
        return RationalMap(w, self.den * self.den)

    def map_coefficients(self, eps: EmbeddingMap) -> "RationalMap":
        return RationalMap(self.num.map_coefficients(eps), self.den.map_coefficients(eps))

    def conjugate_by_reciprocal(self) -> "RationalMap":
        """The map f(1/x), used to study behaviour at infinity."""
        m = max(self.num.degree, self.den.degree)
        return RationalMap(self.num.reverse(m), self.den.reverse(m))


def homogenize(polys, num: Polynomial, den: Polynomial, m: int) -> Tuple[Polynomial, ...]:
    """Each h in polys as the form sum h_i num^i den^(m - i), for m at least every deg h.

    One table of powers of num and den serves every h.  Zero coefficients
    are skipped, so a sparse h, such as a tower map of the wild
    construction, pays only for its terms.
    """
    one = Polynomial.one(num.field)
    powers_n, powers_d = [one], [one]
    for _ in range(m):
        powers_n.append(powers_n[-1] * num)
        powers_d.append(powers_d[-1] * den)
    forms = []
    for h in polys:
        form = Polynomial(num.field)
        for i, c in enumerate(h.coeffs):
            if not c.is_zero:
                form = form + powers_n[i] * powers_d[m - i] * c
        forms.append(form)
    return tuple(forms)


def wronskian(f: RationalMap) -> Polynomial:
    """u'v - uv' for f = u/v; vanishing identically means f is inseparable."""
    return f.num.derivative() * f.den - f.num * f.den.derivative()


def is_separable(f: RationalMap) -> bool:
    if f.is_constant:
        raise PreconditionError("separability is undefined for constant maps")
    return not wronskian(f).is_zero


def mobius_from_triple(a: P1Point, b: P1Point, c: P1Point) -> RationalMap:
    """The unique degree-1 map sending a -> 0, b -> 1, c -> infinity."""
    pts = [a, b, c]
    fld = a.field
    if any(p.field != fld for p in pts):
        raise PreconditionError("points lie in different fields")
    if len({(p.is_infinity, p.value) for p in pts}) != 3:
        raise PreconditionError("Moebius map needs three distinct points")
    one = Polynomial.one(fld)
    x = Polynomial.x(fld)
    if a.is_infinity:
        # (b - c) / (x - c)
        num = Polynomial.constant(fld, b.value - c.value)
        den = x - Polynomial.constant(fld, c.value)
    elif b.is_infinity:
        num = x - Polynomial.constant(fld, a.value)
        den = x - Polynomial.constant(fld, c.value)
    elif c.is_infinity:
        num = x - Polynomial.constant(fld, a.value)
        den = Polynomial.constant(fld, b.value - a.value)
    else:
        num = (x - Polynomial.constant(fld, a.value)) * Polynomial.constant(
            fld, b.value - c.value
        )
        den = (x - Polynomial.constant(fld, c.value)) * Polynomial.constant(
            fld, b.value - a.value
        )
    m = RationalMap(num, den)
    for pt, want in zip(pts, three_points(fld)):
        got = m(pt)
        if got != want:
            raise InternalInconsistencyError(f"Moebius map {m} sends {pt} to {got}, not to {want}")
    return m


# -- text formats ------------------------------------------------------------


def parse_ratmap(field: FiniteField, text: str) -> RationalMap:
    """Parse "num=c0,c1,.../den=c0,c1,..." or "poly=c0,c1,..."."""
    text = text.strip()
    if text.startswith("poly="):
        return RationalMap.from_polynomial(parse_poly(field, text[5:]))
    if "/den=" not in text or not text.startswith("num="):
        raise PreconditionError(f"cannot parse map {text!r}")
    num_text, den_text = text[4:].split("/den=", 1)
    return RationalMap(parse_poly(field, num_text), parse_poly(field, den_text))


def parse_point(field: FiniteField, text: str) -> P1Point:
    text = text.strip()
    if text == "inf":
        return P1Point.infinity(field)
    return P1Point(field, parse_element(field, text))


def parse_point_set(field: FiniteField, text: str) -> Tuple[P1Point, ...]:
    """Parse a point list; "all" is P^1(F), "" or "none" the empty set.

    Points are separated by ';' (always accepted) or ',' (prime fields only,
    since coordinates inside one point already use commas).
    """
    text = text.strip()
    if text == "all":
        return p1_points(field)
    if text in ("", "none"):
        return ()
    sep = ";" if ";" in text or field.n > 1 else ","
    return tuple(parse_point(field, tok) for tok in text.split(sep) if tok.strip())
