"""Ramification reports and covering verdicts for self-maps of the projective line.

Ramification data is grouped into Galois orbits over the base field, so a
report never depends on a choice of extension field.  Orbits are located by
their minimal polynomials, and `analyze` builds no field.  Each index is
read off the multiplicity of its orbit in the Wronskian, confirmed by a few
Hasse derivatives (`_index`).  A branch orbit of degree 2 to
REP_DEGREE_LIMIT gets a display representative in an extension field the
first time its `representative` is read.
"""

from math import lcm
from typing import Optional, Tuple

from .errors import (
    InseparableMapError,
    InternalInconsistencyError,
    PreconditionError,
)
from .factor import factor, split_root
from .field import FiniteField, _relation, embed, galois_orbit
from .poly import Polynomial
from .ratmap import P1Point, RationalMap, disjoint, point_set, three_points, wronskian

# branch orbits of degree up to this get a representative in an extension field when read
REP_DEGREE_LIMIT = 12


def _locus_key(min_poly) -> Tuple:
    """Hashable key of a closed point of the line: its minimal polynomial, None for infinity."""
    if min_poly is None:
        return ("inf",)
    return tuple(c.int_value for c in min_poly.coeffs)


class _Locus:
    """A closed point of the line, located by its minimal polynomial `min_poly` (None for infinity)."""

    __slots__ = ()

    @property
    def is_infinity(self) -> bool:
        return self.min_poly is None

    def key(self) -> Tuple:
        return _locus_key(self.min_poly)

    def place_label(self) -> str:
        return "inf" if self.is_infinity else str(self.min_poly)

    def sort_key(self) -> Tuple:
        if self.is_infinity:
            return (1, ())
        return (0, self.min_poly.sort_key())


_UNREAD = object()  # a representative not yet worked out


class BranchPoint(_Locus):
    """A Galois orbit of branch values, identified by its minimal polynomial.

    A representative given to the constructor is kept as given.  Without
    one it is found at the first read of `representative` and cached.
    """

    __slots__ = ("min_poly", "degree", "_representative")

    def __init__(self, min_poly, degree, representative=_UNREAD):
        self.min_poly = min_poly  # None marks infinity
        self.degree = degree
        self._representative = representative  # P1Point in a canonical field, or None

    @property
    def representative(self):
        if self._representative is _UNREAD:
            self._representative = _display_root(self.min_poly)
        return self._representative

    def rational_value(self):
        if self.min_poly is not None and self.degree == 1:
            return -self.min_poly.coeff(0)
        return None

    def label(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.degree == 1:
            return str(self.rational_value())
        return "minpoly:" + str(self.min_poly)

    def __repr__(self):
        return f"BranchPoint({self.label()}; degree={self.degree})"

    def to_dict(self) -> dict:
        rep = None
        rep_field = None
        if self.representative is not None:
            rep = str(self.representative)
            rep_field = str(self.representative.field)
        return {
            "min_poly": self.place_label(),
            "degree": self.degree,
            "representative": rep,
            "representative_field": rep_field,
        }


def _branch(bmp, base) -> BranchPoint:
    """The branch record of the minimal polynomial bmp over base, None for infinity.

    Infinity and rational values get their point at once; an orbit of higher
    degree finds its representative when it is first read.
    """
    if bmp is None:
        return BranchPoint(None, 1, P1Point.infinity(base))
    if bmp.degree == 1:
        return BranchPoint(bmp, 1, P1Point(base, -bmp.coeff(0)))
    return BranchPoint(bmp, bmp.degree)


class RamOrbit(_Locus):
    """A Galois orbit of points with ramification index at least 2, and the branch orbit below it."""

    __slots__ = ("min_poly", "index", "orbit_size", "wild", "branch")

    def __init__(self, min_poly, index, orbit_size, branch, p):
        self.min_poly = min_poly  # None marks the point at infinity
        self.index = index
        self.orbit_size = orbit_size
        self.wild = index % p == 0  # p is the characteristic
        self.branch = branch  # a BranchPoint, shared with the report's branch_points

    @property
    def branch_is_infinity(self) -> bool:
        return self.branch.is_infinity

    @property
    def branch_value(self):
        """The branch value as a P1Point when it is rational and affine, else None."""
        b = self.branch
        return b.representative if b.degree == 1 and not b.is_infinity else None

    def __repr__(self):
        return f"RamOrbit({self.place_label()}; e={self.index}, size={self.orbit_size})"

    def to_dict(self) -> dict:
        return {
            "min_poly": self.place_label(),
            "index": self.index,
            "wild": self.wild,
            "orbit_size": self.orbit_size,
            "branch_image": self.branch.label(),
        }


class RamReport:
    """Complete ramification bookkeeping for a separable map."""

    __slots__ = ("map", "points", "branch_points", "rh_defect", "splitting_degree")

    def __init__(self, map_, points, branch_points, rh_defect, splitting_degree):
        self.map = map_
        self.points = points
        self.branch_points = branch_points
        self.rh_defect = rh_defect
        self.splitting_degree = splitting_degree

    @property
    def field(self) -> FiniteField:
        return self.map.field

    @property
    def degree(self) -> int:
        return self.map.degree

    @property
    def tame(self) -> bool:
        return all(not o.wild for o in self.points)

    def to_dict(self) -> dict:
        return {
            "field": str(self.field),
            "map": str(self.map),
            "degree": self.degree,
            "separable": True,
            "tame": self.tame,
            "points": [o.to_dict() for o in self.points],
            "branch_set": [b.to_dict() for b in self.branch_points],
            "rh_defect": self.rh_defect,
            "splitting_degree": self.splitting_degree,
        }


def _index(f: RationalMap, g: Polynomial, m: int, beta: Polynomial = None) -> int:
    """The ramification index e at the roots of g, which divides W = N'D - ND' exactly m times.

    With H_j the j-th Hasse derivative and W_j = (H_j N) D - N (H_j D), so
    that W_1 = W, e is the least j with g not dividing W_j.  At an affine
    orbit beta is N/D in K = F_q[x]/(g) and W_j = D (H_j N - beta H_j D)
    in K, D a unit; at a pole (beta None) W_j = -N H_j D in K, N a unit.
    Since ord W = e - 1 when p does not divide e, and ord W >= e when it
    does, e is m + 1 or a multiple of p up to m; only those j are tried.
    """
    num, den, p = f.num, f.den, f.field.p
    for j in [*range(p, m + 1, p), m + 1]:
        rest = den.hasse_derivative(j) % g
        if beta is not None:
            rest = (num.hasse_derivative(j) - beta * rest) % g
        if not rest.is_zero:
            return j
    raise InternalInconsistencyError(
        f"no ramification index at the roots of {g} fits their Wronskian multiplicity {m}"
    )


def _min_poly(beta: Polynomial, g: Polynomial) -> Polynomial:
    """The minimal polynomial over the base field of beta in K = F_q[x]/(g), g irreducible.

    It is the first linear relation among 1, beta, beta^2, ...: each power
    is one pmul and pdivmod on value tuples after the last, and goes through
    field._relation against the echelon of the powers before it.  The first
    dependent power gives the relation, monic in that power.  Its degree k
    is the size of the Frobenius orbit of beta, so it divides deg g; any
    other degree raises InternalInconsistencyError.
    """
    field, d = g.field, g.degree
    zero, pmul, pdivmod = field.zero_value, field.pmul, field.pdivmod
    rows, power = [], (field.one_value,)
    for k in range(d + 1):
        rel = _relation(field, rows, list(power) + [zero] * (d - len(power)))
        if rel is not None:
            if d % k:
                break
            return Polynomial._from_trimmed(field, rel)
        power = pdivmod(pmul(power, beta.values), g.values)[1]
    raise InternalInconsistencyError(f"the powers of {beta} modulo {g} meet no relation of degree dividing {d}")


def _affine_orbit(f: RationalMap, g: Polynomial, m: int) -> RamOrbit:
    """The orbit of the roots of g, worked out in K = F_q[x]/(g): no extension field is built.

    m is the multiplicity of g in the Wronskian, which fixes the index.  The
    branch polynomial is the minimal polynomial of beta = N/D in K, the first
    linear relation among its powers (`_min_poly`).
    """
    base = f.field
    # f at a root of g; D is a unit of K since g does not divide it
    beta = (f.num % g) * f.den.inverse_mod(g) % g
    return RamOrbit(g, _index(f, g, m, beta), g.degree, _branch(_min_poly(beta, g), base), base.p)


def _infinity_orbit(f: RationalMap) -> Optional[RamOrbit]:
    """The point at infinity: over beta = f(inf) = (b0 : b1), with index d - deg(b1 N - b0 D)."""
    base = f.field
    beta = f(P1Point.infinity(base))
    b0, b1 = beta.homogeneous()
    index = f.degree - (f.num * b1 - f.den * b0).degree
    if index < 2:
        return None
    bmp = None if beta.is_infinity else Polynomial(base, (-b0, b1))
    return RamOrbit(None, index, 1, _branch(bmp, base), base.p)


def _display_root(bmp) -> Optional[P1Point]:
    """The least root of bmp in the canonical F_{q^k}, k = deg bmp, or None above REP_DEGREE_LIMIT."""
    k = bmp.degree
    if k > REP_DEGREE_LIMIT:
        return None
    base = bmp.field
    fld = FiniteField(base.p, base.n * k)  # interned: the orbits of one degree share it and its embedding
    root = split_root(bmp.map_coefficients(embed(base, fld)))
    return P1Point(fld, galois_orbit(root, base)[0])


def _collect_branches(orbits) -> Tuple[BranchPoint, ...]:
    """The first branch record per branch orbit, sorted; every orbit above it is pointed at it."""
    seen = {}
    for orbit in orbits:
        orbit.branch = seen.setdefault(orbit.branch.key(), orbit.branch)
    return tuple(sorted(seen.values(), key=BranchPoint.sort_key))


def analyze(f: RationalMap) -> RamReport:
    """Group the ramification of f into Galois orbits over its base field.

    Each irreducible factor g of the Wronskian (factor, after Yun's
    squarefree decomposition) is one critical orbit, and its index comes
    from the multiplicity of g there and a few Hasse derivatives (`_index`).
    An orbit of poles lies over infinity; the branch orbit of any other is
    the minimal polynomial of beta = N/D in F_q[x]/(g), the first linear
    relation among its powers (`_min_poly`), and infinity is read off the
    degrees, so no field is built and no Frobenius power is taken in
    F_q[x]/(g); the representative of a branch orbit of degree <=
    REP_DEGREE_LIMIT builds one when it is first read.  Raises
    InseparableMapError when the Wronskian vanishes, since the critical
    locus is then not finite.
    """
    base = f.field
    if f.is_constant:
        raise PreconditionError("constant map has no ramification report")
    w = wronskian(f)
    if w.is_zero:
        raise InseparableMapError("map is inseparable, its critical locus is not finite")
    orbits = []
    _unit, parts = factor(w)
    for g, m in parts:
        if (f.den % g).is_zero:
            orbits.append(RamOrbit(g, _index(f, g, m), g.degree, _branch(None, base), base.p))
        else:
            orbits.append(_affine_orbit(f, g, m))
    inf_orbit = _infinity_orbit(f)
    if inf_orbit is not None:
        orbits.append(inf_orbit)
    orbits.sort(key=RamOrbit.sort_key)
    total = sum(o.orbit_size * (o.index - 1) for o in orbits)
    defect = (2 * f.degree - 2) - total
    tame = all(not o.wild for o in orbits)
    if defect < 0 or (defect == 0) != tame:
        raise InternalInconsistencyError(
            f"ramification totals are inconsistent: defect {defect} with tame={tame}"
        )
    branch_points = _collect_branches(orbits)
    splitting = 1
    for orbit in orbits:
        splitting = lcm(splitting, orbit.orbit_size)
    for bp in branch_points:
        splitting = lcm(splitting, bp.degree)
    return RamReport(f, tuple(orbits), branch_points, defect, splitting)


class BelyiVerdict:
    """Outcome of a covering check, with human-readable violations."""

    __slots__ = ("kind", "passed", "violations", "report")

    def __init__(self, kind, passed, violations, report=None):
        self.kind = kind
        self.passed = passed
        self.violations = tuple(violations)
        self.report = report

    def __bool__(self) -> bool:
        return self.passed

    def __repr__(self):
        status = "pass" if self.passed else "fail"
        return f"BelyiVerdict({self.kind}: {status})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed, "violations": list(self.violations)}


def _branch_in_triple(bp: BranchPoint, field) -> bool:
    if bp.is_infinity:
        return True
    if bp.degree != 1:
        return False
    v = bp.rational_value()
    return v.is_zero or v == field.one


def verify_tame_belyi(f: RationalMap, marked=(), avoided=()) -> BelyiVerdict:
    """Check that f is a three-point cover compatible with the given sets.

    Requirements: f separable, every ramification index prime to the
    characteristic, branch values inside {0, 1, inf}, marked points mapped
    into {0, 1, inf}, avoided points mapped outside it.
    """
    return _tame_verdicts(f, [(marked, avoided)])[0]


def _tame_verdicts(f: RationalMap, readings) -> list:
    """verify_tame_belyi(f, marked, avoided) for each (marked, avoided) in readings, on one analysis of f
    and one image of each point."""
    if f.is_constant:
        raise PreconditionError("constant map is not a covering")
    std = three_points(f.field)
    images, per_reading = {}, []
    for marked, avoided in readings:
        marked, avoided = point_set(f.field, marked), point_set(f.field, avoided)
        disjoint(marked, avoided)
        for pt in marked + avoided:
            if pt not in images:
                images[pt] = f(pt)
        violations = [
            f"marked point {pt} maps to {images[pt]}, outside {{0, 1, inf}}" for pt in marked if images[pt] not in std
        ]
        violations += [
            f"avoided point {pt} maps to {images[pt]}, inside {{0, 1, inf}}" for pt in avoided if images[pt] in std
        ]
        per_reading.append(violations)
    try:
        report = analyze(f)
    except InseparableMapError:
        return [BelyiVerdict("tame", False, violations + ["inseparable"]) for violations in per_reading]
    of_map = []
    for orbit in report.points:
        if orbit.wild:
            of_map.append(
                f"ramification index {orbit.index} at {orbit.place_label()} "
                "is divisible by the characteristic"
            )
    for bp in report.branch_points:
        if not _branch_in_triple(bp, f.field):
            of_map.append(f"branch point {bp.label()} lies outside {{0, 1, inf}}")
    for violations in per_reading:
        violations += of_map
    return [BelyiVerdict("tame", not violations, violations, report) for violations in per_reading]


def verify_wild_belyi(f: RationalMap, marked=(), avoided=()) -> BelyiVerdict:
    """Check that f ramifies only above infinity and respects the given sets.

    Requirements: f separable, every branch value equal to inf, marked
    points mapped to inf, avoided points mapped elsewhere.  Inseparable
    input is rejected outright.
    """
    if f.is_constant:
        raise PreconditionError("constant map is not a covering")
    report = analyze(f)  # raises on inseparable input before the sets are checked
    marked, avoided = point_set(f.field, marked), point_set(f.field, avoided)
    disjoint(marked, avoided)
    inf = P1Point.infinity(f.field)
    violations = []
    for pt in marked:
        img = f(pt)
        if img != inf:
            violations.append(f"marked point {pt} maps to {img}, not to inf")
    for pt in avoided:
        if f(pt) == inf:
            violations.append(f"avoided point {pt} maps to inf")
    for bp in report.branch_points:
        if not bp.is_infinity:
            violations.append(f"branch point {bp.label()} is not inf")
    return BelyiVerdict("wild", not violations, violations, report)


def is_simple_covering(f: RationalMap) -> BelyiVerdict:
    """Check that every index is 2 with one ramified point per geometric branch point."""
    if f.is_constant:
        raise PreconditionError("constant map is not a covering")
    try:
        report = analyze(f)
    except InseparableMapError:
        return BelyiVerdict("simple", False, ("inseparable",))
    violations = []
    for orbit in report.points:
        if orbit.index != 2:
            violations.append(f"ramification index {orbit.index} at {orbit.place_label()} is not 2")
    by_branch = {}
    for orbit in report.points:
        by_branch.setdefault(orbit.branch.key(), []).append(orbit)
    for bp in report.branch_points:
        total = sum(o.orbit_size for o in by_branch[bp.key()])
        if total != bp.degree:
            violations.append(
                f"branch point {bp.label()} has {total} geometric ramified points, expected {bp.degree}"
            )
    return BelyiVerdict("simple", not violations, violations, report)
