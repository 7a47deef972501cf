"""Helpers that only the tests call, kept here as oracles: each is the plain
reading of its definition, independent of the library code it checks."""

from fractions import Fraction
from math import factorial

from pbelyi.counting import curve_points
from pbelyi.errors import PreconditionError
from pbelyi.factor import squarefree_decomposition
from pbelyi.poly import Polynomial
from pbelyi.ramification import analyze
from pbelyi.ratmap import P1Point, RationalMap, wronskian


def multiplicity(f: Polynomial, g: Polynomial) -> int:
    """The largest m with g**m dividing f, by repeated division, for g of positive degree."""
    if f.is_zero:
        raise PreconditionError("the zero polynomial is divisible by every power")
    if f._coerce(g).degree < 1:
        raise PreconditionError("multiplicity needs a divisor of positive degree, got %s" % g)
    count = 0
    quo, rem = divmod(f, g)
    while rem.is_zero:
        count += 1
        quo, rem = divmod(quo, g)
    return count


def root_multiplicity(f: Polynomial, r) -> int:
    """Multiplicity of x = r as a root of f."""
    return multiplicity(f, Polynomial(f.field, [-f.field.element(r), 1]))


def conjugate_by_reciprocal(f: RationalMap) -> RationalMap:
    """The map f(1/x), which moves the behaviour at infinity to 0."""
    m = max(f.num.degree, f.den.degree)
    return RationalMap(f.num.reverse(m), f.den.reverse(m))


def is_separable(f: RationalMap) -> bool:
    if f.is_constant:
        raise PreconditionError("separability is undefined for constant maps")
    return not wronskian(f).is_zero


def discriminant_degree(f: RationalMap) -> int:
    """Sum of orbit size times (index - 1) over all ramification orbits."""
    return sum(o.orbit_size * (o.index - 1) for o in analyze(f).points)


def squarefree_part(f: Polynomial) -> Polynomial:
    """The radical: product of the distinct monic irreducible factors."""
    out = Polynomial.one(f.field)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out


def tame_root_count(g: Polynomial) -> int:
    """deg g - deg gcd(g, g') on Polynomials: the distinct roots of g whose multiplicity p does not divide."""
    return g.degree - g.gcd(g.derivative()).degree


def sym_count_bounds_check(q: int, A: int, r: int, value) -> bool:
    """Strict two-sided envelope for a symmetric-product count.

    Checks (1/(7 r!)) (3 - 2/A)^r q^r < value < (5/3 + 4/(3A))^r q^r exactly.
    """
    if not isinstance(A, int) or A < 3:
        raise PreconditionError("the envelope parameter A must be an integer at least 3")
    if q < 2 or r < 1:
        raise PreconditionError("need q at least 2 and r at least 1")
    qr = q**r
    lower = Fraction(1, 7 * factorial(r)) * Fraction(3 * A - 2, A) ** r * qr
    upper = Fraction(5 * A + 4, 3 * A) ** r * qr
    return lower < value < upper


def projective_space_count(q: int, L: int) -> int:
    """Number of points of L-dimensional projective space over a q-element field."""
    if q < 2 or L < 0:
        raise PreconditionError("need q at least 2 and L at least 0")
    return (q ** (L + 1) - 1) // (q - 1)


def _in_prime_subfield(elem) -> bool:
    return all(c == 0 for c in elem.coords[1:])


def _point_in_prime_subfield(point) -> bool:
    if isinstance(point, P1Point):
        return point.is_infinity or _in_prime_subfield(point.value)
    if point.label == "inf":
        return True
    if point.label is not None:
        return _in_prime_subfield(point.y)
    return _in_prime_subfield(point.x) and _in_prime_subfield(point.y)


def pick_points(curve, avoid=(), count: int = 0, subfield: bool = False):
    """Deterministically select rational points outside the avoided set.

    Points come smallest-first in the display order; with the subfield flag
    only points with prime-field coordinates are eligible.
    """
    if count < 0:
        raise PreconditionError("cannot pick a negative number of points")
    avoided = set(avoid)
    pool = [
        point
        for point in curve_points(curve)
        if point not in avoided and (not subfield or _point_in_prime_subfield(point))
    ]
    if len(pool) < count:
        raise PreconditionError(
            f"only {len(pool)} points available outside the avoided set, need {count}"
        )
    return tuple(pool[:count])
