"""Ramification reports and covering verdicts for self-maps of the projective line.

Ramification data is grouped into Galois orbits over the base field, so a
report never depends on a choice of extension field.  Orbits are located by
their minimal polynomials; representatives in an extension are materialized
only when small enough to be worth printing.
"""

from math import lcm
from typing import Optional, Tuple

from .errors import (
    GuardExceededError,
    InseparableMapError,
    InternalInconsistencyError,
    PreconditionError,
)
from .factor import factor, roots
from .field import FiniteField, embed, galois_orbit
from .poly import Polynomial
from .ratmap import P1Point, RationalMap, three_points, wronskian


def _locus_key(min_poly) -> Tuple:
    """Hashable key of a closed point of the line: its minimal polynomial, None for infinity."""
    if min_poly is None:
        return ("inf",)
    return tuple(c.int_value for c in min_poly.coeffs)


def _multiplicity(g: Polynomial, h: Polynomial) -> int:
    count = 0
    quo, rem = divmod(h, g)
    while rem.is_zero:
        count += 1
        h = quo
        quo, rem = divmod(h, g)
    return count


class RamOrbit:
    """A Galois orbit of points with ramification index at least 2."""

    __slots__ = (
        "min_poly",
        "index",
        "orbit_size",
        "wild",
        "branch_is_infinity",
        "branch_min_poly",
        "branch_value",
    )

    def __init__(self, min_poly, index, orbit_size, wild, branch_is_infinity, branch_min_poly, branch_value):
        self.min_poly = min_poly  # None marks the point at infinity
        self.index = index
        self.orbit_size = orbit_size
        self.wild = wild
        self.branch_is_infinity = branch_is_infinity
        self.branch_min_poly = branch_min_poly  # None when the branch value is infinity
        self.branch_value = branch_value  # P1Point when the branch value is rational

    @property
    def is_infinity(self) -> bool:
        return self.min_poly is None

    def place_label(self) -> str:
        return "inf" if self.is_infinity else str(self.min_poly)

    def branch_label(self) -> str:
        if self.branch_is_infinity:
            return "inf"
        if self.branch_value is not None:
            return str(self.branch_value)
        return "minpoly:" + str(self.branch_min_poly)

    def branch_key(self) -> Tuple:
        return _locus_key(self.branch_min_poly)

    def sort_key(self) -> Tuple:
        if self.is_infinity:
            return (1, ())
        return (0, self.min_poly.sort_key())

    def __repr__(self):
        return f"RamOrbit({self.place_label()}; e={self.index}, size={self.orbit_size})"

    def to_dict(self) -> dict:
        return {
            "min_poly": self.place_label(),
            "index": self.index,
            "wild": self.wild,
            "orbit_size": self.orbit_size,
            "branch_image": self.branch_label(),
        }


class BranchPoint:
    """A Galois orbit of branch values, identified by its minimal polynomial."""

    __slots__ = ("min_poly", "degree", "representative")

    def __init__(self, min_poly, degree, representative):
        self.min_poly = min_poly  # None marks infinity
        self.degree = degree
        self.representative = representative  # P1Point in a canonical field, or None

    @property
    def is_infinity(self) -> bool:
        return self.min_poly is None

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

    def key(self) -> Tuple:
        return _locus_key(self.min_poly)

    def sort_key(self) -> Tuple:
        if self.is_infinity:
            return (1, ())
        return (0, self.min_poly.sort_key())

    def __repr__(self):
        return f"BranchPoint({self.label()}; degree={self.degree})"

    def to_dict(self) -> dict:
        rep = None
        rep_field = None
        if self.representative is not None:
            rep = str(self.representative)
            rep_field = str(self.representative.field)
        return {
            "min_poly": "inf" if self.is_infinity else str(self.min_poly),
            "degree": self.degree,
            "representative": rep,
            "representative_field": rep_field,
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


def _affine_orbit(f: RationalMap, g: Polynomial, ext_degree_limit: int) -> RamOrbit:
    base = f.field
    d = g.degree
    if base.n * d > ext_degree_limit:
        raise GuardExceededError(
            f"critical orbit of degree {d} needs an extension of degree {base.n * d} "
            f"over the prime field, above the limit {ext_degree_limit}"
        )
    if d == 1:
        ext, eps = base, None
        num, den = f.num, f.den
        root = -g.coeff(0)
    else:
        ext = FiniteField(base.p, base.n * d)
        eps = embed(base, ext)
        num = f.num.map_coefficients(eps)
        den = f.den.map_coefficients(eps)
        root = roots(g.map_coefficients(eps))[0]
    beta = num.evaluate(root) / den.evaluate(root)
    index = (num - den * beta).root_multiplicity(root)
    if index < 2:
        raise InternalInconsistencyError("critical point with ramification index below 2")
    orbit = galois_orbit(beta, base)
    bmp_ext = Polynomial.from_roots(ext, orbit)
    if eps is None:
        bmp = bmp_ext
    else:
        bmp = Polynomial(base, [eps.section(c) for c in bmp_ext.coeffs])
    value = P1Point(base, -bmp.coeff(0)) if bmp.degree == 1 else None
    return RamOrbit(g, index, d, index % base.p == 0, False, bmp, value)


def _infinity_orbit(f: RationalMap) -> Optional[RamOrbit]:
    base = f.field
    conj = f.conjugate_by_reciprocal()
    zero = base.zero
    if conj.den.evaluate(zero).is_zero:
        index = conj.den.root_multiplicity(zero)
        branch_inf, bmp, value = True, None, None
    else:
        beta = conj.num.evaluate(zero) / conj.den.evaluate(zero)
        index = (conj.num - conj.den * beta).root_multiplicity(zero)
        branch_inf = False
        bmp = Polynomial(base, (-beta, base.one))
        value = P1Point(base, beta)
    if index < 2:
        return None
    return RamOrbit(None, index, 1, index % base.p == 0, branch_inf, bmp, value)


def _collect_branches(base, orbits, rep_degree_limit) -> Tuple[BranchPoint, ...]:
    seen = {}
    for orbit in orbits:
        key = orbit.branch_key()
        if key in seen:
            continue
        if orbit.branch_is_infinity:
            seen[key] = BranchPoint(None, 1, P1Point.infinity(base))
            continue
        bmp = orbit.branch_min_poly
        rep = orbit.branch_value
        if rep is None and bmp.degree <= rep_degree_limit:
            fld = FiniteField(base.p, base.n * bmp.degree)
            rep = P1Point(fld, roots(bmp.map_coefficients(embed(base, fld)))[0])
        seen[key] = BranchPoint(bmp, bmp.degree, rep)
    return tuple(sorted(seen.values(), key=BranchPoint.sort_key))


def analyze(f: RationalMap, rep_degree_limit: int = 12, ext_degree_limit: int = 256) -> RamReport:
    """Group the ramification of f into Galois orbits over its base field.

    Critical orbits dividing the denominator are read off from pole orders,
    which keeps large wild examples cheap.  Raises InseparableMapError when
    the Wronskian vanishes, since the critical locus is then not finite.
    """
    base = f.field
    if f.is_constant:
        raise PreconditionError("constant map has no ramification report")
    w = wronskian(f)
    if w.is_zero:
        raise InseparableMapError("map is inseparable, its critical locus is not finite")
    orbits = []
    _unit, parts = factor(w)
    for g, _mult in parts:
        if (f.den % g).is_zero:
            index = _multiplicity(g, f.den)
            if index < 2:
                raise InternalInconsistencyError("simple pole detected on the critical locus")
            orbits.append(RamOrbit(g, index, g.degree, index % base.p == 0, True, None, None))
        else:
            orbits.append(_affine_orbit(f, g, ext_degree_limit))
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
    branch_points = _collect_branches(base, orbits, rep_degree_limit)
    splitting = 1
    for orbit in orbits:
        splitting = lcm(splitting, orbit.orbit_size)
    for bp in branch_points:
        splitting = lcm(splitting, bp.degree)
    return RamReport(f, tuple(orbits), branch_points, defect, splitting)


def discriminant_degree(f: RationalMap) -> int:
    """Sum of orbit size times (index - 1) over all ramification orbits."""
    return sum(o.orbit_size * (o.index - 1) for o in analyze(f).points)


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


def _checked_sets(base, marked, avoided):
    """Marked and avoided points on the line over base, deduplicated and disjoint."""

    def clean(pts, label):
        out = []
        seen = set()
        for pt in pts:
            if not isinstance(pt, P1Point) or pt.field != base:
                raise PreconditionError(f"{label} point does not lie on the line over {base}")
            if pt not in seen:
                seen.add(pt)
                out.append(pt)
        return tuple(out)

    marked = clean(marked, "marked")
    avoided = clean(avoided, "avoided")
    overlap = set(marked) & set(avoided)
    if overlap:
        worst = min(overlap, key=P1Point.sort_key)
        raise PreconditionError(f"marked and avoided sets overlap at {worst}")
    return marked, avoided


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
    if f.is_constant:
        raise PreconditionError("constant map is not a covering")
    marked, avoided = _checked_sets(f.field, marked, avoided)
    violations = []
    std = three_points(f.field)
    for pt in marked:
        img = f(pt)
        if img not in std:
            violations.append(f"marked point {pt} maps to {img}, outside {{0, 1, inf}}")
    for pt in avoided:
        img = f(pt)
        if img in std:
            violations.append(f"avoided point {pt} maps to {img}, inside {{0, 1, inf}}")
    if wronskian(f).is_zero:
        violations.append("inseparable")
        return BelyiVerdict("tame", False, violations)
    report = analyze(f)
    for orbit in report.points:
        if orbit.wild:
            violations.append(
                f"ramification index {orbit.index} at {orbit.place_label()} "
                "is divisible by the characteristic"
            )
    for bp in report.branch_points:
        if not _branch_in_triple(bp, f.field):
            violations.append(f"branch point {bp.label()} lies outside {{0, 1, inf}}")
    return BelyiVerdict("tame", not violations, violations, report)


def verify_wild_belyi(f: RationalMap, marked=(), avoided=()) -> BelyiVerdict:
    """Check that f ramifies only above infinity and respects the given sets.

    Requirements: f separable, every branch value equal to inf, marked
    points mapped to inf, avoided points mapped elsewhere.  Inseparable
    input is rejected outright.
    """
    if f.is_constant:
        raise PreconditionError("constant map is not a covering")
    if wronskian(f).is_zero:
        raise InseparableMapError("map is inseparable")
    marked, avoided = _checked_sets(f.field, marked, avoided)
    inf = P1Point.infinity(f.field)
    violations = []
    for pt in marked:
        img = f(pt)
        if img != inf:
            violations.append(f"marked point {pt} maps to {img}, not to inf")
    for pt in avoided:
        if f(pt) == inf:
            violations.append(f"avoided point {pt} maps to inf")
    report = analyze(f)
    for bp in report.branch_points:
        if not bp.is_infinity:
            violations.append(f"branch point {bp.label()} is not inf")
    return BelyiVerdict("wild", not violations, violations, report)


def is_simple_covering(f: RationalMap) -> BelyiVerdict:
    """Check that every index is 2 with one ramified point per geometric branch point."""
    if f.is_constant:
        raise PreconditionError("constant map is not a covering")
    if wronskian(f).is_zero:
        return BelyiVerdict("simple", False, ("inseparable",))
    report = analyze(f)
    violations = []
    for orbit in report.points:
        if orbit.index != 2:
            violations.append(f"ramification index {orbit.index} at {orbit.place_label()} is not 2")
    by_branch = {}
    for orbit in report.points:
        by_branch.setdefault(orbit.branch_key(), []).append(orbit)
    for bp in report.branch_points:
        total = sum(o.orbit_size for o in by_branch[bp.key()])
        if total != bp.degree:
            violations.append(
                f"branch point {bp.label()} has {total} geometric ramified points, expected {bp.degree}"
            )
    return BelyiVerdict("simple", not violations, violations, report)
