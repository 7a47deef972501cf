"""Recipes that build Belyi maps on the line, each shipped with a fresh verdict.

Every result is re-verified from scratch by the ramification module; the
recipes never certify themselves.  Provenance lists record the choices made
(which point merged, which degree-1 move, which field tower) so runs are
reproducible.
"""

from itertools import islice

from .bounds import _check_lcm_floor, decimal_string, point_supply_check, tame_bound_parts, wild_N, wild_bound
from .errors import InternalInconsistencyError, PreconditionError, check_int, check_size
from .factor import is_irreducible, roots
from .field import FieldElement, FiniteField, _relation, embed, galois_orbit, prime_power
from .poly import Polynomial
from .ramification import BelyiVerdict, _locus_key, _tame_verdicts, analyze, verify_tame_belyi, verify_wild_belyi
from .ratmap import (
    P1Point, RationalMap, as_point, disjoint, mobius_from_triple, p1_points, p1_points_outside, point_set, three_points,
)

SPAN_LIMIT = 10 ** 4
TOWER_DEGREE_LIMIT = 2000
RECURSION_FIELD_LIMIT = 10 ** 4
FIELD_DEGREE_LIMIT = 32


def _as_field(q):
    if isinstance(q, FiniteField):
        return q
    return FiniteField(*prime_power(q))


def _point_tuple(field, values):
    return tuple(sorted(point_set(field, values), key=P1Point.sort_key))


def _named(side, pts):
    """'avoided point 0' or 'avoided points 0, 1', for refusals that name the user's points."""
    return "%s point%s %s" % (side, "s" * (len(pts) > 1), ", ".join(map(str, pts)))


class BelyiInstance:
    """A base field with disjoint marked and avoided sets of rational points."""

    __slots__ = ("field", "S", "T")

    def __init__(self, field, marked=(), avoided=()):
        self.field = field
        self.S = _point_tuple(field, marked)
        self.T = _point_tuple(field, avoided)
        disjoint(self.S, self.T)

    @property
    def s(self):
        return len(self.S)

    @property
    def t(self):
        return len(self.T)

    def __repr__(self):
        return "BelyiInstance(%s, S=%d points, T=%d points)" % (self.field, self.s, self.t)

    def to_dict(self):
        return {
            "field": str(self.field),
            "S": [str(p) for p in self.S],
            "T": [str(p) for p in self.T],
        }


class ConstructionResult:
    """A constructed map, the independent verdict on it, and the trace of steps."""

    __slots__ = ("map", "verdict", "provenance")

    def __init__(self, map_, verdict, provenance):
        self.map = map_
        self.verdict = verdict
        self.provenance = list(provenance)

    @property
    def degree(self):
        return self.map.degree

    def __repr__(self):
        status = "pass" if self.verdict.passed else "fail"
        return "ConstructionResult(degree=%d, %s: %s)" % (self.degree, self.verdict.kind, status)

    def to_dict(self):
        return {
            "map": str(self.map),
            "field": str(self.map.field),
            "degree": self.degree,
            "verdict": self.verdict.to_dict(),
            "provenance": self.provenance,
        }


def tame_power_map(q):
    """The power map x^(q-1), checked on every rational point of the line.

    The shifted variant x^(q-1) - 1 collapses all units onto 0 and branches
    over -1, so it fails verification whether the full point set is read as
    marked or as avoided; both failing verdicts, read from one analysis of
    it, ride along in the provenance.
    """
    field = _as_field(q)
    x = Polynomial.x(field)
    power = RationalMap.from_polynomial(x ** (field.q - 1))
    everything = p1_points(field)
    verdict = verify_tame_belyi(power, everything, ())
    shifted = RationalMap.from_polynomial(x ** (field.q - 1) - Polynomial.one(field))
    marked_reading, avoided_reading = _tame_verdicts(shifted, [(everything, ()), ((), everything)])
    provenance = [
        {"step": "power map", "map": str(power), "degree": field.q - 1},
        {
            "step": "rejected shifted variant",
            "map": str(shifted),
            "marked reading": marked_reading.to_dict(),
            "avoided reading": avoided_reading.to_dict(),
        },
    ]
    return ConstructionResult(power, verdict, provenance)


def _verified(step):
    """The ConstructionResult of a (map, marked, avoided, provenance entry) step, with a fresh verdict."""
    map_, marked, avoided, entry = step
    return ConstructionResult(map_, verify_tame_belyi(map_, marked, avoided), [entry])


def tame_normalize_small(instance, tau=None):
    """A degree-1 map sending at most three marked points into {0, 1, inf}.

    Slot policy: the smallest marked point goes to 0 and the largest to inf
    (the middle one, if any, to 1); unused target slots are filled with the
    smallest rational points that are neither marked nor avoided.
    """
    return _verified(_normalize_step(instance, tau))


def _normalize_step(instance, tau):
    """tame_normalize_small as a (map, marked, avoided, provenance entry) step, unverified."""
    field = instance.field
    if instance.s > 3:
        raise PreconditionError("normalization handles at most 3 marked points, got %d" % instance.s)
    avoided = () if tau is None else (as_point(field, tau),)
    disjoint(instance.S, avoided)
    zero, one, inf = three_points(field)
    srcs = list(instance.S)
    if not srcs:
        pairs = []
    elif len(srcs) == 1:
        pairs = [(srcs[0], zero)]
    elif len(srcs) == 2:
        pairs = [(srcs[0], zero), (srcs[1], inf)]
    else:
        pairs = [(srcs[0], zero), (srcs[1], one), (srcs[2], inf)]
    taken = {dst for _, dst in pairs}
    free = [dst for dst in (zero, one, inf) if dst not in taken]
    fillers = list(islice(p1_points_outside(field, instance.S + avoided), len(free)))
    if len(fillers) < len(free):
        raise PreconditionError(
            "the line over %s has too few rational points to separate the sets" % field
        )
    pairs += list(zip(fillers, free))
    src_for = {dst: src for src, dst in pairs}
    mob = mobius_from_triple(src_for[zero], src_for[one], src_for[inf])
    entry = {
        "step": "normalize",
        "map": str(mob),
        "assignment": {str(src): str(dst) for src, dst in pairs},
    }
    if avoided:
        entry["avoided image"] = str(mob(avoided[0]))
    return mob, instance.S, avoided, entry


def collapse_map(q, alpha, S, tau=None):
    """The map -x^(q-1) + x/alpha, which merges alpha with 0 on the marked set.

    Requires 0 and inf marked and alpha a further affine marked point; the
    image of the marked set then has exactly one point less, and the avoided
    point (when given) keeps a separate image.  The attached report is the
    ground truth on where this map actually branches.
    """
    return _verified(_collapse_step(q, alpha, S, tau))


def _collapse_step(q, alpha, S, tau):
    """collapse_map as a (map, marked, avoided, provenance entry) step, unverified."""
    field = _as_field(q)
    S = _point_tuple(field, S)
    alpha = as_point(field, alpha)
    zero, one, inf = three_points(field)
    if zero not in S or inf not in S:
        raise PreconditionError("needs 0 and inf marked; apply a degree-1 move first")
    if alpha.is_infinity or alpha == zero:
        raise PreconditionError("alpha must be affine and nonzero, got %s" % alpha)
    if alpha not in S:
        raise PreconditionError("alpha = %s is not marked" % alpha)
    avoided = () if tau is None else (as_point(field, tau),)
    disjoint(S, avoided)
    x = Polynomial.x(field)
    poly = -(x ** (field.q - 1)) + Polynomial.constant(field, alpha.value.inverse()) * x
    xi = RationalMap.from_polynomial(poly)
    images = {pt: xi(pt) for pt in S}
    merged = set(images.values())
    if len(merged) != len(S) - 1:
        raise InternalInconsistencyError(
            "collapse produced %d images from %d points" % (len(merged), len(S))
        )
    if any(xi(pt) in merged for pt in avoided):
        raise InternalInconsistencyError("the avoided image collided with a marked image")
    entry = {
        "step": "collapse",
        "alpha": str(alpha),
        "map": str(xi),
        "images": {str(src): str(dst) for src, dst in images.items()},
    }
    if avoided:
        entry["avoided image"] = str(xi(avoided[0]))
    return xi, S, avoided, entry


def tame_reduce_recursive(instance, tau):
    """Shrink the marked set one collapse at a time, then normalize.

    The composite has degree (q-1)^(s-3) for s > 3 and degree 1 otherwise.
    The steps are built unverified; the one verdict is whatever the verifier
    computes on the composite, so nothing is repaired or hidden.
    """
    field = instance.field
    tau = as_point(field, tau)
    disjoint(instance.S, (tau,))
    zero, one, inf = three_points(field)
    provenance = []
    current = instance.S
    cur_tau = tau
    composite = RationalMap.identity(field)
    if len(current) > 3:
        check_size(
            "each collapse step has degree q - 1, and q is {}", field.p, field.n,
            RECURSION_FIELD_LIMIT, "raise constructions.RECURSION_FIELD_LIMIT",
        )
        if zero not in current or inf not in current:
            srcs = list(current)
            mob = mobius_from_triple(srcs[0], srcs[1], srcs[-1])
            current = _point_tuple(field, (mob(pt) for pt in current))
            cur_tau = mob(cur_tau)
            composite = mob
            provenance.append({"step": "move to standard position", "map": str(mob)})
    while len(current) > 3:
        alpha = next(pt for pt in current if pt != zero and pt != inf)
        xi, _, _, entry = _collapse_step(field, alpha, current, cur_tau)
        provenance.append(entry)
        cur_tau = xi(cur_tau)
        current = _point_tuple(field, (xi(pt) for pt in current))
        composite = xi.compose(composite)
    mob, _, _, entry = _normalize_step(BelyiInstance(field, current, (cur_tau,)), cur_tau)
    provenance.append(entry)
    composite = mob.compose(composite)
    expected = (field.q - 1) ** max(instance.s - 3, 0)
    if composite.degree != expected:
        raise InternalInconsistencyError(
            "composite degree %d, expected %d" % (composite.degree, expected)
        )
    verdict = verify_tame_belyi(composite, instance.S, (tau,))
    provenance.append({"step": "total", "degree": composite.degree, "passed": verdict.passed})
    return ConstructionResult(composite, verdict, provenance)


def fp_span_of_conjugates(base_field, elements):
    """Close the elements under Galois over the base field, then span over F_p.

    Returns the full span as a sorted tuple; it always contains 0, is stable
    under every conjugation used, and its size is a power of p.  Raises
    GuardExceededError before the span grows past SPAN_LIMIT elements.
    """
    gens = list(elements)
    if not gens:
        return (base_field.zero,)
    ext = gens[0].field
    for b in gens:
        if not isinstance(b, FieldElement) or b.field != ext:
            raise PreconditionError("span generators must be elements of a single field")
    if ext.p != base_field.p or ext.n % base_field.n != 0:
        raise PreconditionError("the generators live outside an extension of %s" % base_field)
    closure = set()
    for b in gens:
        closure.update(galois_orbit(b, base_field))
    return tuple(sorted(_fp_span(ext, closure), key=lambda e: e.int_value))


def _fp_span(field, gens):
    """The F_p-span of gens as a set, adding the generators in element order.

    Raises GuardExceededError before the span grows past SPAN_LIMIT elements.
    """
    p = field.p
    span = {field.zero}
    for gen in sorted(gens, key=lambda e: e.int_value):
        if gen in span:
            continue
        check_size("the F_p-span would have {} elements", len(span) * p, 1, SPAN_LIMIT, "raise constructions.SPAN_LIMIT")
        bigger = set()
        for v in span:
            w = v
            for _ in range(p):
                bigger.add(w)
                w = w + gen
        span = bigger
    return span


class HTower:
    """An additive polynomial h0 with the two rational layers built on it."""

    __slots__ = ("h0", "h1", "h2", "report", "checks")

    def __init__(self, h0, h1, h2, report, checks):
        self.h0 = h0
        self.h1 = h1
        self.h2 = h2
        self.report = report
        self.checks = dict(checks)

    @property
    def psi(self):
        return self.h2

    def __repr__(self):
        return "HTower(deg h0=%d, deg h2=%d)" % (self.h0.degree, self.h2.degree)

    def to_dict(self):
        return {
            "h0": str(self.h0),
            "h1": str(self.h1),
            "h2": str(self.h2),
            "degree": self.h2.degree,
            "checks": dict(self.checks),
        }


def wild_h_tower(V, base_field=None):
    """Build h0 = prod(x - a) over V, then h1 = x^p (D+1)/D with D = x^p h0 + h0^p,
    and h2 = h1^p + h1.

    V must be an F_p-subspace given as a set of elements; holding 0, it is one
    exactly when |V| = p^rank, the rank of its F_p-coordinates (field._relation).
    h2 then induces a map sending V minus 0 to infinity, keeping 0 affine, and
    ramifying only over infinity.  All three facts are checked directly, never assumed.
    Raises GuardExceededError when h2 would pass degree TOWER_DEGREE_LIMIT.
    """
    members = list(V)
    if not members:
        raise PreconditionError("the subspace must contain 0")
    ext = members[0].field
    for v in members:
        if not isinstance(v, FieldElement) or v.field != ext:
            raise PreconditionError("subspace members must be elements of a single field")
    p = ext.p
    vset = set(members)
    if ext.zero not in vset:
        raise PreconditionError("the subspace must contain 0")
    prime, rows = FiniteField(p), []
    for v in vset:
        _relation(prime, rows, list(v.coords))
    if len(vset) != p ** len(rows):
        raise PreconditionError("the element set is not an F_p-subspace")
    check_size(
        "the tower map would have degree {}", len(vset) * p * p, 1,
        TOWER_DEGREE_LIMIT, "raise constructions.TOWER_DEGREE_LIMIT",
    )
    ordered = sorted(vset, key=lambda e: e.int_value)
    h0_ext = Polynomial.from_roots(ext, ordered)
    base = base_field if base_field is not None else ext
    eps = None
    if base != ext:
        if base.p != ext.p or ext.n % base.n != 0:
            raise PreconditionError("the subspace lives outside an extension of %s" % base)
        eps = embed(base, ext)
        coeffs = []
        for c in h0_ext.coeffs:
            # h0 is fixed by Frobenius over base, since V is a union of orbits
            try:
                coeffs.append(eps.section(c))
            except PreconditionError:
                raise InternalInconsistencyError(
                    "coefficient %s of h0 does not descend to %s" % (c, base)
                ) from None
        h0 = Polynomial(base, coeffs)
    else:
        h0 = h0_ext
    x = Polynomial.x(base)
    D = x ** p * h0 + h0 ** p
    h1 = RationalMap(x ** p * (D + Polynomial.one(base)), D)
    h2 = RationalMap(h1.num ** p + h1.num * h1.den ** (p - 1), h1.den ** p)
    report = analyze(h2)
    h2_ext = h2 if eps is None else h2.map_coefficients(eps)
    for alpha in ordered:
        img = h2_ext.evaluate(P1Point.of(alpha))
        if alpha == ext.zero:
            if img.is_infinity:
                raise InternalInconsistencyError("h2 sends 0 to infinity")
            zero_image = img
        elif not img.is_infinity:
            raise InternalInconsistencyError("h2 sends %s to %s, not to infinity" % (alpha, img))
    stray = [bp.label() for bp in report.branch_points if not bp.is_infinity]
    if stray:
        raise InternalInconsistencyError("tower map branches over %s" % ", ".join(stray))
    checks = {
        "span size": len(vset),
        "nonzero span to infinity": len(vset) - 1,
        "image of zero": str(zero_image),
        "branch values": [bp.label() for bp in report.branch_points],
    }
    return HTower(h0, h1, h2, report, checks)


def wild_phi(instance):
    """A monic split polynomial of degree N vanishing on the avoided set.

    N = max(t, 2) for genus 0; the remaining N - t roots are the smallest
    rational points outside both sets.  Needs q + 1 - N - s >= 0 so enough
    rational points exist.  An avoided point at infinity is first moved to
    an affine position by a degree-1 map, recorded in the provenance.
    """
    field = instance.field
    q = field.q
    N = wild_N(0, instance.t)
    if not point_supply_check(q, 0, N, instance.s):
        raise PreconditionError(
            "needs q + 1 - N - s >= 0 on the line: q = %d, N = %d, s = %d gives %d"
            % (q, N, instance.s, q + 1 - N - instance.s)
        )
    zero, one, inf = three_points(field)
    provenance = []
    S_cur, T_cur = instance.S, instance.T
    pre = None
    if inf in T_cur:
        center = next(p1_points_outside(field, set(T_cur) | {inf}), None)
        if center is None:
            raise PreconditionError("every affine point is avoided; cannot move infinity")
        x = Polynomial.x(field)
        pre = RationalMap(Polynomial.one(field), x - Polynomial.constant(field, center.value))
        S_cur = _point_tuple(field, (pre(pt) for pt in S_cur))
        T_cur = _point_tuple(field, (pre(pt) for pt in T_cur))
        provenance.append({"step": "move infinity", "map": str(pre), "center": str(center)})
    avoid = set(S_cur) | set(T_cur) | {inf}
    picks = tuple(islice(p1_points_outside(field, avoid), N - instance.t))
    if len(picks) < N - instance.t:
        raise PreconditionError(
            f"only {len(picks)} points available outside the avoided set, need {N - instance.t}"
        )
    root_values = [pt.value for pt in picks] + [pt.value for pt in T_cur]
    phi = RationalMap.from_polynomial(Polynomial.from_roots(field, root_values))
    if pre is not None:
        phi = phi.compose(pre)
    if phi.degree != N:
        raise InternalInconsistencyError("pole map degree %d, expected %d" % (phi.degree, N))
    for pt in instance.T:
        if phi(pt) != zero:
            raise InternalInconsistencyError("pole map misses 0 at the avoided point %s" % pt)
    for pt in instance.S:
        if phi(pt) == zero:
            raise InternalInconsistencyError("pole map sends the marked point %s to 0" % pt)
    report = analyze(phi)
    for bp in report.branch_points:
        if not bp.is_infinity and bp.min_poly.coeff(0) == field.zero:
            raise InternalInconsistencyError("0 turned out to be a branch value of the pole map")
    provenance.append(
        {
            "step": "pole map",
            "map": str(phi),
            "degree": N,
            "picked": [str(pt) for pt in picks],
            "avoided roots": [str(pt) for pt in T_cur],
        }
    )
    verdict = BelyiVerdict("pole-map", True, (), report)
    return ConstructionResult(phi, verdict, provenance)


def wild_belyi_compose(instance):
    """Compose the pole map with a tower map so only infinity branches.

    The span of the pole map's marked images and branch values feeds the
    tower; the composite is re-verified as a wild three-condition cover, and
    its degree must stay strictly below N p^(s+2N) for genus 0.
    """
    field = instance.field
    p = field.p
    phi_res = wild_phi(instance)
    phi = phi_res.map
    report = phi_res.verdict.report
    d = report.splitting_degree
    if d == 1:
        ext = field
        eps = None
    else:
        ext = FiniteField(field.p, field.n * d)
        eps = embed(field, ext)
    gens = []
    for pt in instance.S:
        img = phi(pt)
        if not img.is_infinity:
            gens.append(eps(img.value) if eps else img.value)
    for bp in report.branch_points:
        if bp.is_infinity:
            continue
        mp = bp.min_poly.map_coefficients(eps) if eps else bp.min_poly
        gens.extend(roots(mp))
    V = fp_span_of_conjugates(field, gens)
    tower = wild_h_tower(V, base_field=field)
    f = tower.h2.compose(phi)
    if f.degree != tower.h2.degree * phi.degree:
        raise InternalInconsistencyError(
            "composite degree %d is not the product %d * %d"
            % (f.degree, tower.h2.degree, phi.degree)
        )
    ceiling = wild_bound(0, instance.s, instance.t, p)
    margin = ceiling.value - f.degree
    if margin <= 0:
        raise InternalInconsistencyError(
            "composite degree %d is not below the proven ceiling %s"
            % (f.degree, decimal_string(ceiling.value))
        )
    verdict = verify_wild_belyi(f, instance.S, instance.T)
    provenance = list(phi_res.provenance)
    provenance.append({"step": "span", "size": len(V), "field": str(V[0].field)})
    provenance.append({"step": "tower", "h0": str(tower.h0), "degree": tower.h2.degree})
    provenance.append(
        {
            "step": "compose",
            "degree": f.degree,
            "ceiling": decimal_string(ceiling.value),
            "margin": decimal_string(margin),
        }
    )
    return ConstructionResult(f, verdict, provenance)


def _branch_partitions(report):
    """Partition of the degree over each branch orbit, from a ramification report."""
    parts = {bp.key(): [] for bp in report.branch_points}
    for orbit in report.points:
        parts[orbit.branch.key()].extend([orbit.index] * (orbit.orbit_size // orbit.branch.degree))
    return {
        key: tuple(sorted(p + [1] * (report.degree - sum(p)), reverse=True)) for key, p in parts.items()
    }


class CoveringDescriptor:
    """Branch data of a degree-n covering of the line, with marked images.

    Branch entries are (min_poly, partition) pairs where min_poly is a monic
    irreducible over the base field, or None for the point at infinity.  When
    a concrete map is attached every declared field is recomputed from it.
    """

    __slots__ = ("field", "degree", "genus", "branch", "zS", "zT", "map")

    def __init__(self, field, degree, genus, branch=(), zS=(), zT=(), map=None):
        self.field = field
        self.degree = check_int("degree", degree, 1)
        self.genus = check_int("genus", genus, 0)
        entries = []
        seen = set()
        for mp, partition in branch:
            if mp is not None:
                if mp.field != field:
                    raise PreconditionError("branch locus %s lies over the wrong field" % mp)
                if not mp.is_monic or not is_irreducible(mp):
                    raise PreconditionError("branch locus %s is not monic irreducible" % mp)
            partition = tuple(sorted((int(e) for e in partition), reverse=True))
            if not partition or any(e < 1 for e in partition):
                raise PreconditionError("ramification partitions need positive parts")
            if sum(partition) != degree:
                raise PreconditionError(
                    "partition %s does not sum to the degree %d" % (list(partition), degree)
                )
            key = _locus_key(mp)
            if key in seen:
                raise PreconditionError("branch locus listed twice")
            seen.add(key)
            entries.append((mp, partition))
        self.branch = tuple(entries)
        self.zS = _point_tuple(field, zS)
        self.zT = _point_tuple(field, zT)
        disjoint(self.zS, self.zT)
        if len(self.zT) > 1:
            raise PreconditionError("avoided images must collapse to a single point")
        self.map = map
        if map is not None:
            if genus != 0:
                raise PreconditionError("a concrete map forces genus 0")
            if map.field != field:
                raise PreconditionError("the attached map lies over the wrong field")
            if map.degree != degree:
                raise PreconditionError(
                    "declared degree %d, but the map has degree %d" % (degree, map.degree)
                )
            if map.degree > 1 or self.branch:
                derived = _branch_partitions(analyze(map))
                declared = {_locus_key(mp): partition for mp, partition in self.branch}
                if derived != declared:
                    raise PreconditionError("declared branch data disagrees with the map")

    @classmethod
    def identity(cls, field, S=(), T=()):
        ident = RationalMap.identity(field)
        return cls(field, 1, 0, (), S, T, map=ident)

    @classmethod
    def from_map(cls, map_, S=(), T=()):
        field = map_.field
        S = _point_tuple(field, S)
        T = _point_tuple(field, T)
        disjoint(S, T)
        zS = {map_(pt) for pt in S}
        zT = {map_(pt) for pt in T}
        shared = zS.intersection(zT)
        if shared:
            z = min(shared, key=P1Point.sort_key)
            names = [_named(side, [pt for pt in pts if map_(pt) == z]) for side, pts in (("marked", S), ("avoided", T))]
            raise PreconditionError("%s and %s both map to %s" % (*names, z))
        branch = []
        if map_.degree > 1:
            report = analyze(map_)
            parts = _branch_partitions(report)
            for bp in report.branch_points:
                branch.append((bp.min_poly, parts[bp.key()]))
        # the branch data comes from this very map, so only the map-free checks run
        desc = cls(field, map_.degree, 0, branch, zS, zT)
        desc.map = map_
        return desc

    def __repr__(self):
        return "CoveringDescriptor(degree=%d, genus=%d, %d branch orbits)" % (
            self.degree,
            self.genus,
            len(self.branch),
        )

    def to_dict(self):
        return {
            "n": self.degree,
            "g": self.genus,
            "branch": [
                {
                    "min_poly": "inf" if mp is None else str(mp),
                    "partition": list(partition),
                }
                for mp, partition in self.branch
            ],
            "zS": [str(p) for p in self.zS],
            "zT": [str(p) for p in self.zT],
            "map": None if self.map is None else str(self.map),
        }


def _points_or_size(field, value, name):
    """(points or None, count): an iterable other than a str is a point set, anything else a nonnegative size."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        return None, check_int(name, value, 0)
    pts = _point_tuple(field, value)
    return pts, len(pts)


def tame_pipeline(desc, S=0, T=0):
    """Extend scalars until the branch locus is rational, then reduce tamely.

    S and T are point sets on the source when the descriptor carries a map,
    or plain sizes for abstract descriptors.  Returns a record with the
    extension data, the reduction, and the end-to-end composite when one
    can be formed.
    """
    field = desc.field
    S_pts, s = _points_or_size(field, S, "S")
    T_pts, t = _points_or_size(field, T, "T")
    if S_pts is not None and T_pts is not None:
        disjoint(S_pts, T_pts)
    if len(desc.zS) > s:
        raise PreconditionError("more marked images than marked points")
    if t == 0 and desc.zT:
        raise PreconditionError("avoided images declared, but the avoided set is empty")
    if t > 0 and len(desc.zT) != 1:
        raise PreconditionError("a nonempty avoided set must map to exactly one point")
    if desc.map is not None:
        if S_pts is None or T_pts is None:
            raise PreconditionError("a concrete descriptor takes explicit point sets")
        if {desc.map(pt) for pt in S_pts} != set(desc.zS):
            raise PreconditionError("marked images disagree with the attached map")
        if {desc.map(pt) for pt in T_pts} != set(desc.zT):
            raise PreconditionError("avoided images disagree with the attached map")
    g = desc.genus
    _check_lcm_floor(
        g, t, "the working field has degree at least {} over the prime field",
        FIELD_DEGREE_LIMIT, "raise constructions.FIELD_DEGREE_LIMIT",
    )
    parts = tame_bound_parts(g, s, t, field.q)
    mL = parts["m"] * parts["L"]
    check_size(
        "the working field has degree {} over the prime field", field.n * mL, 1,
        FIELD_DEGREE_LIMIT, "raise constructions.FIELD_DEGREE_LIMIT",
    )
    for mp, _ in desc.branch:
        locus_degree = 1 if mp is None else mp.degree
        if mL % locus_degree != 0:
            raise PreconditionError(
                "a branch point generates a degree-%d extension, which does not divide "
                "the working degree %d" % (locus_degree, mL)
            )
    if mL > 1:
        ext = FiniteField(field.p, field.n * mL)
    else:
        ext = field
    eps = embed(field, ext)
    s_prime_set = {pt.embedded(eps) for pt in desc.zS}
    for mp, _ in desc.branch:
        if mp is None:
            s_prime_set.add(P1Point.infinity(ext))
        else:
            for r in roots(mp.map_coefficients(eps)):
                s_prime_set.add(P1Point.of(r))
    S_prime = tuple(sorted(s_prime_set, key=lambda p: p.sort_key()))
    ceiling = 6 * g + s + 2 * t
    if len(S_prime) > ceiling:
        raise PreconditionError(
            "S' has %d points, over the ceiling 6g + s + 2t = %d" % (len(S_prime), ceiling)
        )
    if desc.zT:
        tau0 = desc.zT[0].embedded(eps)
        if tau0 in s_prime_set:
            which = "avoided image %s" % desc.zT[0]
            if desc.map is not None:
                which = "%s map%s to %s, which" % (_named("avoided", T_pts), "s" * (len(T_pts) == 1), desc.zT[0])
            raise PreconditionError(
                "%s lies in S', the images of the marked points plus the branch values of the map" % which
            )
        drop_avoided = False
    else:
        # q^(mL) >= threshold is far above |S'| + 3, so some point is left
        tau0 = next(p1_points_outside(ext, s_prime_set | set(three_points(ext))))
        drop_avoided = True
    xi_res = tame_reduce_recursive(BelyiInstance(ext, S_prime, (tau0,)), tau0)
    total_degree = desc.degree * xi_res.map.degree
    composite = None
    if desc.map is not None:
        zeta_ext = desc.map.map_coefficients(eps)
        f_total = xi_res.map.compose(zeta_ext)
        marked = tuple(pt.embedded(eps) for pt in S_pts)
        avoided = () if drop_avoided else tuple(pt.embedded(eps) for pt in T_pts)
        verdict_total = verify_tame_belyi(f_total, marked, avoided)
        steps = list(xi_res.provenance)
        steps.append({"step": "compose with covering", "map": str(f_total)})
        composite = ConstructionResult(f_total, verdict_total, steps)
    return {
        "m": parts["m"],
        "L": parts["L"],
        "threshold": parts["threshold"],
        "extension_field": ext,
        "s_prime": len(S_prime),
        "S_prime": S_prime,
        "tau0": tau0,
        "xi": xi_res,
        "total_degree": total_degree,
        "composite": composite,
    }
