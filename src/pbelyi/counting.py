"""Point counts on curve models, zeta numerators, and symmetric-product counts.

Curves are the projective line and smooth hyperelliptic models y^2 = f(x)
in odd characteristic.  Everything is exact integer or rational arithmetic;
brute-force loops sit behind explicit size guards.
"""

from fractions import Fraction
from math import comb

from .errors import InternalInconsistencyError, PreconditionError, check_int, check_size
from .field import FiniteField, embed, parse_field
from .poly import Polynomial, parse_poly, value_at
from .ratmap import P1Point, p1_points

POINT_GUARD = 10**7
DIVISOR_GUARD = 10**6


def _extension_size(curve, m, guard):
    """q^m, the size of the degree-m extension; GuardExceededError once it passes guard."""
    check_int("guard", guard)
    return check_size("the count needs a field of {} elements", curve.q, m, guard, "raise guard= (--guard-override)")


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


def _count_stripe(field, fvals, start, step):
    """Affine points of y^2 = f(x) with x in one stripe of the field's codes; f given by its values."""
    zero, one, d = field.zero_value, field.one_value, len(fvals) - 1
    half = (field.q - 1) // 2
    total = 0
    for k in range(start, field.q, step):
        t = value_at(field, fvals, d, field.from_code(k))
        if t == zero:
            total += 1
        elif field.pow(t, half) == one:  # Euler's criterion
            total += 2
    return total


def _log_stripe(field, fvals, start, step):
    """The same count on a tabled field, x = g^L for L in one stripe of [0, q - 1); x = 0 goes with start 0.

    Horner runs on logs (None for zero): with t the log of the partial
    value, t*x has log t + L, and adding a nonzero c = g^l gives
    l + Z[t + L - l], Z the field's Zech logarithms.  The values are codes,
    so log[c] is the log of a coefficient c.  f(x) is a nonzero square
    exactly when its log is even, since q - 1 is even.
    """
    log, zech = field._log, field._zech
    qm1 = len(log) - 1
    logs = [log[c] for c in reversed(fvals)]
    lead, rest = logs[0], logs[1:]
    total = 0
    if start == 0:  # x = 0, where f(x) = c_0
        c0 = logs[-1]
        total += 1 if c0 is None else 0 if c0 % 2 else 2
    for L in range(start, qm1, step):
        t = lead
        for c in rest:
            if t is None:
                t = c
            elif c is None:
                t += L
            else:
                t = zech[(t + L - c) % qm1]
                if t is not None:
                    t += c
        if t is None:
            total += 1
        elif t % 2 == 0:
            total += 2
    return total


def count_points(curve, m: int = 1, guard: int = POINT_GUARD, workers: int = 1) -> int:
    """Number of points of the curve over the degree-m extension of its base field.

    The extension is the interned canonical field, so the counts over one
    extension share its tables and the embedding of the base.  On a tabled
    extension the affine points are counted on logs with the Zech logarithms
    built with the field's tables (`_log_stripe`), on a prime field or one
    above TABLE_LIMIT by value ops and Euler's criterion (`_count_stripe`).
    With workers > 1 a pool splits the same loop into stripes, each worker
    on its own unpickled copy.
    """
    check_int("m", m, 1)
    check_int("workers", workers, 1)
    size = _extension_size(curve, m, guard)
    if isinstance(curve, ProjectiveLine):
        return size + 1
    base = curve.field
    ext = FiniteField(base.p, base.n * m)
    f_ext = curve.f if ext == base else curve.f.map_coefficients(embed(base, ext))
    stripe = _count_stripe if ext._log is None else _log_stripe
    if workers <= 1:
        total = stripe(ext, f_ext.values, 0, 1)
    else:
        import multiprocessing  # here, not at the top: importing pbelyi leaves it unloaded

        jobs = [(ext, f_ext.values, i, workers) for i in range(workers)]
        with multiprocessing.Pool(workers) as pool:  # each worker unpickles its own copy of ext
            total = sum(pool.starmap(stripe, jobs))
    if curve.f.degree % 2 == 1:
        total += 1
    else:
        lc = curve.f.leading
        exponent = ((size - 1) // 2) % (curve.q - 1)
        if lc ** exponent == base.one:
            total += 2
    return total


def point_counts(curve, max_m: int, guard: int = POINT_GUARD, workers: int = 1) -> dict:
    """Counts N_1..N_max as a mapping, each validated against the Weil bound; guarded at max_m before counting."""
    if check_int("max_m", max_m, 0) >= 1:
        _extension_size(curve, max_m, guard)
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
        self.q = check_int("q", q, 2)
        self.genus = check_int("genus", genus, 0)
        self.coeffs = tuple(check_int("a_%d" % i, a) for i, a in enumerate(coeffs))
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
        sums = self.power_sums(check_int("m", m, 1))
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
        sums.append(q**m + 1 - check_int("counts[%d]" % m, counts[m], 0))
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


def sym_product_count(counts, r: int) -> int:
    """Points on the r-th symmetric product, from the counts N_1..N_r.

    The counts a_k are the coefficients of exp(sum N_m t^m / m), so
    k a_k = sum_{m=1..k} N_m a_{k-m} with a_0 = 1.  The recurrence runs in
    exact rational arithmetic, and a_r must come out an integer.
    """
    for m in range(1, check_int("r", r, 1) + 1):
        if m not in counts:
            raise PreconditionError(f"symmetric-product count needs N_{m}")
        check_int("counts[%d]" % m, counts[m], 0)
    a = [Fraction(1)]
    for k in range(1, r + 1):
        a.append(sum(counts[m] * a[k - m] for m in range(1, k + 1)) / k)
    if a[r].denominator != 1:
        raise InternalInconsistencyError("symmetric-product total is not an integer, the counts are inconsistent")
    return int(a[r])


def closed_point_counts(curve, max_degree: int, guard: int = DIVISOR_GUARD, workers: int = 1) -> dict:
    """Number of closed points of each degree d <= max_degree.

    Möbius inversion of point_counts, Weil check included: N_d is the sum of e * b_e over e | d.
    """
    out = {}
    exact = {}  # d -> d * b_d, the points of exact degree d
    for d, total in point_counts(curve, check_int("max_degree", max_degree, 0), guard=guard, workers=workers).items():
        total -= sum(exact[e] for e in range(1, d) if d % e == 0)
        exact[d] = total
        if total % d != 0:
            raise InternalInconsistencyError(f"point counts do not split into degree-{d} orbits")
        out[d] = total // d
    return out


def enumerate_effective_divisors(curve, r: int, guard: int = DIVISOR_GUARD, workers: int = 1) -> int:
    """Count effective divisors of degree r from the closed-point counts.

    Multisets of closed points are counted with a stars-and-bars convolution
    per degree.  closed_point_counts gets b_d by Möbius inversion of the same
    N_m that sym_product_count reads, so their agreement is an identity
    between two formulas on one set of counts, not an independent enumeration.
    """
    b = closed_point_counts(curve, check_int("r", r, 1), guard=guard, workers=workers)
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
    for name, value, low in (("q", q, 2), ("g", g, 0), ("m", m, 1), ("count", count, 0)):
        check_int(name, value, low)
    return (count - q**m - 1) ** 2 <= 4 * g * g * q**m


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
