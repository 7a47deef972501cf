"""Rational self-maps of the projective line over a finite field.

A map is a reduced fraction num/den with monic denominator, so equality is
coefficient equality.  Points of P^1 are field elements plus one distinguished
infinity per field; `as_point` and `point_set` are the one way to read them
and `disjoint` the one overlap check of marked and avoided points.
Evaluation, composition, Moebius maps, derivatives and the separability test
(nonvanishing Wronskian) live here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .errors import InternalInconsistencyError, PreconditionError, check_int
from .field import EmbeddingMap, FieldElement, FiniteField, parse_element
from .poly import Polynomial, parse_poly, value_at


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

    def homogeneous(self) -> Tuple[FieldElement, FieldElement]:
        """Coordinates (x0 : x1) with an affine a as (a : 1) and infinity as (1 : 0)."""
        one = self.field.one
        return (one, self.field.zero) if self.is_infinity else (self.value, one)

    def sort_key(self) -> Tuple[int, int]:
        """Affine points by element order, infinity last."""
        if self.is_infinity:
            return (1, 0)
        return (0, self.value.int_value)

    def embedded(self, eps: EmbeddingMap) -> "P1Point":
        if self.is_infinity:
            return P1Point.infinity(eps.target)
        return P1Point(eps.target, eps(self.value))


def as_point(field: FiniteField, value) -> P1Point:
    """A point of P^1(field) from a P1Point, an element, a text or an element code, an int in [0, q)."""
    if isinstance(value, P1Point):
        if value.field != field:
            raise PreconditionError("point %s lies over %s, expected %s" % (value, value.field, field))
        return value
    if isinstance(value, FieldElement):
        if value.field != field:
            raise PreconditionError("element %s lies in %s, expected %s" % (value, value.field, field))
        return P1Point.of(value)
    if isinstance(value, str):
        return parse_point(field, value)
    return P1Point.of(field.from_int_value(check_int("point code", value, 0, field.q)))


def point_set(field: FiniteField, values) -> Tuple[P1Point, ...]:
    """The points read by as_point, each once, in the order first seen."""
    return tuple(dict.fromkeys(as_point(field, v) for v in values))


def disjoint(marked, avoided) -> None:
    """Refuse marked and avoided points that share a point, naming the least shared one."""
    shared = set(marked).intersection(avoided)
    if shared:
        raise PreconditionError("point %s is both marked and avoided" % min(shared, key=P1Point.sort_key))


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
        """Value at a point of P^1 over self.field; map_coefficients(eps) serves an extension.

        At infinity num and den give their x^d coefficients (value_at's convention), never both
        zero; elsewhere the reduced fraction has no common root.  Either way a zero den means inf.
        """
        fld = self.field
        if point.field != fld:
            raise PreconditionError("point lies in a different field; map the coefficients first")
        x = None if point.is_infinity else point.value.value
        d = self.degree
        bottom = value_at(fld, self.den.values, d, x)
        if bottom == fld.zero_value:
            return P1Point.infinity(fld)
        top = value_at(fld, self.num.values, d, x)
        return P1Point.of(FieldElement(fld, fld.mul(top, fld.inv(bottom))))

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


def mobius_from_triple(a: P1Point, b: P1Point, c: P1Point) -> RationalMap:
    """The unique degree-1 map sending a -> 0, b -> 1, c -> infinity.

    The cross-ratio (x - a)(b - c) / ((x - c)(b - a)) in homogeneous coordinates: a point
    (u0 : u1) gives the form u1 x - u0, and u - v becomes u0 v1 - v0 u1.
    """
    pts = (a, b, c)
    fld = a.field
    if any(p.field != fld for p in pts):
        raise PreconditionError("points lie in different fields")
    if len(set(pts)) != 3:
        raise PreconditionError("Moebius map needs three distinct points")
    (a0, a1), (b0, b1), (c0, c1) = (p.homogeneous() for p in pts)
    x = Polynomial.x(fld)
    m = RationalMap((x * a1 - a0) * (b0 * c1 - c0 * b1), (x * c1 - c0) * (b0 * a1 - a0 * b1))
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
