"""Point counts on curve models, zeta numerators, and symmetric-product counts.

Curves are the projective line and smooth hyperelliptic models y^2 = f(x)
in odd characteristic.  Everything is exact integer or rational arithmetic;
brute-force loops sit behind explicit size guards.
"""

import multiprocessing
from fractions import Fraction
from math import comb, factorial

from .errors import GuardExceededError, InternalInconsistencyError, PreconditionError
from .factor import is_irreducible
from .field import FiniteField, digits, embed, parse_field
from .poly import Polynomial, parse_poly
from .ratmap import P1Point, p1_points

POINT_GUARD = 10**7
DIVISOR_GUARD = 10**6


class ProjectiveLine:
    """The projective line over a finite field."""

    def __init__(self, field: FiniteField):
        self.field = field

    @property
    def genus(self) -> int:
        return 0

    @property
    def q(self) -> int:
        return self.field.q

    def __eq__(self, other):
        return isinstance(other, ProjectiveLine) and self.field == other.field

    def __hash__(self):
        return hash(("p1", self.field))

    def __str__(self):
        return f"p1/{self.field}"

    def __repr__(self):
        return f"ProjectiveLine({self.field})"


class Hyperelliptic:
    """A smooth hyperelliptic model y^2 = f(x) with squarefree f, deg f >= 3."""

    def __init__(self, field: FiniteField, f: Polynomial):
        if f.field != field:
            raise PreconditionError("defining polynomial lies over a different field")
        if f.degree < 3:
            raise PreconditionError("hyperelliptic model needs deg f at least 3")
        fp = f.derivative()
        if fp.is_zero:
            raise PreconditionError("f is a p-th power, the model is singular")
        if f.gcd(fp).degree > 0:
            raise PreconditionError("f has a repeated root, the model is singular")
        self.field = field
        self.f = f

    @property
    def genus(self) -> int:
        return (self.f.degree + 1) // 2 - 1

    @property
    def q(self) -> int:
        return self.field.q

    def __eq__(self, other):
        return isinstance(other, Hyperelliptic) and self.field == other.field and self.f == other.f

    def __hash__(self):
        return hash(("hyp", self.field, self.f))

    def __str__(self):
        return f"hyp/{self.field}/{self.f}"

    def __repr__(self):
        return f"Hyperelliptic({self.field}; y^2 = {self.f})"


def parse_curve(text: str):
    """Parse 'p1/<field>' or 'hyp/<field>/<f coefficients little-endian>'."""
    parts = text.strip().split("/")
    if parts[0] == "p1" and len(parts) >= 2:
        return ProjectiveLine(parse_field("/".join(parts[1:])))
    if parts[0] == "hyp" and len(parts) >= 3:
        field = parse_field("/".join(parts[1:-1]))
        return Hyperelliptic(field, parse_poly(field, parts[-1]))
    raise PreconditionError(f"unrecognized curve format: {text!r}")


def _prime_chunk(args):
    p, coeffs, start, step = args
    half = (p - 1) // 2
    total = 0
    for x in range(start, p, step):
        t = 0
        for c in reversed(coeffs):
            t = (t * x + c) % p
        if t == 0:
            total += 1
        elif pow(t, half, p) == 1:
            total += 2
    return total


def _ext_chunk(args):
    p, n, modulus, fcoords, start, step = args
    field = FiniteField(p, n, modulus=modulus)
    f = Polynomial(field, [field.element(list(c)) for c in fcoords])
    half = (field.q - 1) // 2
    one = field.one
    total = 0
    for k in range(start, field.q, step):
        t = f.evaluate(field.from_int_value(k))
        if t.is_zero:
            total += 1
        elif t ** half == one:
            total += 2
    return total


def _sum_chunks(fn, jobs, workers):
    if workers <= 1 or len(jobs) <= 1:
        return sum(fn(job) for job in jobs)
    with multiprocessing.Pool(workers) as pool:
        return sum(pool.map(fn, jobs))


def count_points(curve, m: int = 1, guard: int = POINT_GUARD, workers: int = 1) -> int:
    """Number of points of the curve over the degree-m extension of its base field."""
    if m < 1:
        raise PreconditionError("extension degree m must be at least 1")
    size = curve.q ** m
    if size > guard:
        raise GuardExceededError(
            f"counting over a field of size {size} exceeds the guard {guard}; raise the guard to proceed"
        )
    if isinstance(curve, ProjectiveLine):
        return size + 1
    base = curve.field
    nm = base.n * m
    stripes = max(1, workers)
    if nm == 1:
        coeffs = [c.int_value for c in curve.f.coeffs]
        jobs = [(base.p, coeffs, i, stripes) for i in range(stripes)]
        total = _sum_chunks(_prime_chunk, jobs, workers)
    else:
        ext = FiniteField(base.p, nm)
        f_ext = curve.f if ext == base else curve.f.map_coefficients(embed(base, ext))
        fcoords = tuple(c.coords for c in f_ext.coeffs)
        jobs = [(base.p, nm, ext.modulus, fcoords, i, stripes) for i in range(stripes)]
        total = _sum_chunks(_ext_chunk, jobs, workers)
    if curve.f.degree % 2 == 1:
        total += 1
    else:
        lc = curve.f.leading
        exponent = ((size - 1) // 2) % (curve.q - 1)
        if lc ** exponent == base.one:
            total += 2
    return total


def point_counts(curve, max_m: int, guard: int = POINT_GUARD, workers: int = 1) -> dict:
    """Counts N_1..N_max as a mapping, each validated against the Weil bound."""
    out = {}
    for m in range(1, max_m + 1):
        n_m = count_points(curve, m, guard=guard, workers=workers)
        if not hasse_weil_check(curve.q, curve.genus, m, n_m):
            raise InternalInconsistencyError(
                f"count {n_m} over the degree-{m} extension violates the Weil bound"
            )
        out[m] = n_m
    return out


class ZetaData:
    """Integer numerator coefficients a_0..a_2g of a curve's zeta function."""

    def __init__(self, q: int, genus: int, coeffs):
        self.q = q
        self.genus = genus
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != 2 * genus + 1 or self.coeffs[0] != 1:
            raise PreconditionError("zeta numerator needs coefficients a_0=1 .. a_2g")

    def __eq__(self, other):
        return (
            isinstance(other, ZetaData)
            and (self.q, self.genus, self.coeffs) == (other.q, other.genus, other.coeffs)
        )

    def __repr__(self):
        return f"ZetaData(q={self.q}, genus={self.genus}, a={list(self.coeffs)})"

    def power_sums(self, max_m: int) -> list:
        """Sums of m-th powers of the inverse roots, for m = 1..max_m."""
        two_g = 2 * self.genus
        sums = []
        for j in range(1, max_m + 1):
            if j <= two_g:
                acc = j * self.coeffs[j] + sum(self.coeffs[i] * sums[j - i - 1] for i in range(1, j))
            else:
                acc = sum(self.coeffs[i] * sums[j - i - 1] for i in range(1, two_g + 1))
            sums.append(-acc)
        return sums

    def predict_N(self, m: int) -> int:
        """Exact point count over the degree-m extension implied by the numerator."""
        if m < 1:
            raise PreconditionError("extension degree m must be at least 1")
        sums = self.power_sums(m)
        return self.q ** m + 1 - sums[m - 1]

    def to_dict(self) -> dict:
        return {"q": self.q, "genus": self.genus, "a": list(self.coeffs)}


def zeta_fit(curve, counts=None, guard: int = POINT_GUARD, workers: int = 1) -> ZetaData:
    """Fit the zeta numerator from N_1..N_g, completed by the functional equation."""
    g = curve.genus
    q = curve.q
    if counts is None:
        counts = point_counts(curve, g, guard=guard, workers=workers)
    sums = []
    for m in range(1, g + 1):
        if m not in counts:
            raise PreconditionError(f"zeta fit needs the count over the degree-{m} extension")
        sums.append(q**m + 1 - counts[m])
    a = [1]
    for k in range(1, g + 1):
        acc = sums[k - 1] + sum(a[j] * sums[k - j - 1] for j in range(1, k))
        if acc % k != 0:
            raise PreconditionError(
                f"counts are inconsistent: numerator coefficient {k} is not an integer"
            )
        a.append(-(acc // k))
    coeffs = a + [0] * g
    for k in range(g):
        coeffs[2 * g - k] = q ** (g - k) * a[k]
    return ZetaData(q, g, coeffs)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sym_product_count(counts, r: int) -> int:
    """Points on the r-th symmetric product, from the counts N_1..N_r.

    Evaluates the exponential-formula sum over integer compositions in exact
    rational arithmetic and asserts the total is an integer.
    """
    if r < 1:
        raise PreconditionError("symmetric power r must be at least 1")
    for m in range(1, r + 1):
        if m not in counts:
            raise PreconditionError(f"symmetric-product count needs N_{m}")
    total = Fraction(0)
    for i in range(1, r + 1):
        block = Fraction(0)
        for comp in _compositions(r, i):
            term = Fraction(1)
            for a in comp:
                term *= Fraction(counts[a], a)
            block += term
        total += block / factorial(i)
    if total.denominator != 1:
        raise InternalInconsistencyError("symmetric-product total is not an integer, the counts are inconsistent")
    return int(total)


def closed_point_counts(curve, max_degree: int, guard: int = DIVISOR_GUARD, workers: int = 1) -> dict:
    """Number of closed points of each degree d <= max_degree."""
    q = curve.q
    if q**max_degree > guard:
        raise GuardExceededError(
            f"enumerating closed points of degree {max_degree} needs {q**max_degree} candidates, above the guard {guard}"
        )
    out = {}
    if isinstance(curve, ProjectiveLine):
        field = curve.field
        for d in range(1, max_degree + 1):
            if d == 1:
                out[1] = q + 1
                continue
            found = 0
            for k in range(q**d, 2 * q**d):
                coeffs = [field.from_int_value(c) for c in digits(k, q, d + 1)]
                if is_irreducible(Polynomial(field, coeffs)):
                    found += 1
            out[d] = found
        return out
    exact = {}
    for d in range(1, max_degree + 1):
        total = count_points(curve, d, guard=guard, workers=workers)
        for e in range(1, d):
            if d % e == 0:
                total -= exact[e]
        exact[d] = total
        if total % d != 0:
            raise InternalInconsistencyError(f"point counts do not split into degree-{d} orbits")
        out[d] = total // d
    return out


def enumerate_effective_divisors(curve, r: int, guard: int = DIVISOR_GUARD, workers: int = 1) -> int:
    """Count effective divisors of degree r by enumerating closed points.

    Independent of the symmetric-product formula: multisets of closed points
    are counted with a stars-and-bars convolution per degree.
    """
    if r < 1:
        raise PreconditionError("divisor degree r must be at least 1")
    b = closed_point_counts(curve, r, guard=guard, workers=workers)
    ways = [1] + [0] * r
    for d in range(1, r + 1):
        new = [0] * (r + 1)
        for j in range(r + 1):
            acc = ways[j]
            if b[d] > 0:
                for mult in range(1, j // d + 1):
                    acc += comb(b[d] + mult - 1, mult) * ways[j - d * mult]
            new[j] = acc
        ways = new
    return ways[r]


def hasse_weil_check(q: int, g: int, m: int, count: int) -> bool:
    """Exact integer form of the Weil bound on a point count."""
    for name, value in (("q", q), ("g", g), ("m", m), ("count", count)):
        if not isinstance(value, int) or value < 0:
            raise PreconditionError(f"{name} must be a nonnegative integer")
    if q < 2 or m < 1:
        raise PreconditionError("need q at least 2 and m at least 1")
    return (count - q**m - 1) ** 2 <= 4 * g * g * q**m


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


class CurvePoint:
    """A rational point on a hyperelliptic model: affine (x, y) or a labeled infinity."""

    __slots__ = ("x", "y", "label")

    def __init__(self, x=None, y=None, label=None):
        self.x = x
        self.y = y
        self.label = label  # None for affine points, else "inf", "inf+", "inf-"

    @property
    def is_infinity(self) -> bool:
        return self.label is not None

    def __eq__(self, other):
        return (
            isinstance(other, CurvePoint)
            and (self.x, self.y, self.label) == (other.x, other.y, other.label)
        )

    def __hash__(self):
        return hash((self.x, self.y, self.label))

    def __str__(self):
        if self.label is not None:
            return self.label
        sep = "," if self.x.field.n == 1 else ";"
        return f"{self.x}{sep}{self.y}"

    def __repr__(self):
        return f"CurvePoint({self})"

    def sort_key(self):
        if self.label is not None:
            return (1, 0 if self.label in ("inf", "inf+") else 1)
        return (0, self.x.int_value, self.y.int_value)


def curve_points(curve):
    """All rational points of the curve, smallest encoding first."""
    if isinstance(curve, ProjectiveLine):
        return p1_points(curve.field)
    field = curve.field
    sqrt_table = {}
    for y in field.elements():
        sqrt_table.setdefault((y * y).int_value, []).append(y)
    pts = []
    for x in field.elements():
        t = curve.f.evaluate(x)
        for y in sqrt_table.get(t.int_value, ()):
            pts.append(CurvePoint(x, y))
    if curve.f.degree % 2 == 1:
        pts.append(CurvePoint(label="inf"))
    else:
        branches = sqrt_table.get(curve.f.leading.int_value, ())
        if branches:
            pts.append(CurvePoint(y=branches[0], label="inf+"))
            pts.append(CurvePoint(y=branches[1], label="inf-"))
    return tuple(pts)


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
