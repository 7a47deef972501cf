"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is built once per process (its set-up) and then hands out
passes.  A pass is a list of operations; each operation is one call into
pbelyi's public API plus a check of its output.  The search and construct
lists are the same every pass.  The verify and count lists draw fresh
inputs from (seed, pass index), stratified so every pass has the same mix
of fields and degrees.  Two workloads run them: search, and maps
(verify, construct and count in one pass), because a run has to last
about 55 s to be steady on a shared host.
"""

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

from pbelyi.constructions import (
    BelyiInstance,
    CoveringDescriptor,
    tame_pipeline,
    tame_power_map,
    tame_reduce_recursive,
    wild_belyi_compose,
)
from pbelyi.counting import (
    Hyperelliptic,
    count_points,
    enumerate_effective_divisors,
    hasse_weil_check,
    sym_product_count,
    zeta_fit,
)
from pbelyi.errors import PreconditionError
from pbelyi.factor import factor
from pbelyi.field import FiniteField
from pbelyi.poly import Polynomial
from pbelyi.ramification import verify_tame_belyi
from pbelyi.ratmap import RationalMap, p1_points, wronskian
from pbelyi.search import SearchSpec, minimal_belyi_degree

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
DEFAULT_SEED = 0


class Op:
    """One timed call; check(result) returns None or what was wrong."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


# -- search: exhaustive minimal-degree searches over the base field only

# (q, marked or "all", avoided, kind, d_max, degree, witness, candidates_tested)
SEARCHES = (
    (5, "all", (), "tame", 2, None, None, 3120),
    (5, ("0", "1", "2", "3"), (), "tame", 2, 2, "num=4,4,2/den=0,0,1", 680),
    (5, ("0", "1", "2", "inf"), (), "tame", 2, 2, "poly=1,3,1", 137),
    (3, "all", (), "wild", 3, None, None, 2184),
    (5, "all", (), "wild", 2, None, None, 3120),
)


class SearchWorkload:
    def __init__(self, seed):
        self.ops = [self._op(*row) for row in SEARCHES]

    @staticmethod
    def _op(q, marked, avoided, kind, d_max, degree, witness, tested):
        F = FiniteField(q)
        inst = BelyiInstance(F, p1_points(F) if marked == "all" else marked, avoided)
        spec = SearchSpec(inst, kind, d_max, fields=[F])

        def check(res):
            got = (res["degree"], None if res["witness"] is None else str(res["witness"]),
                   res["exhausted"], res["fields_searched"], res["candidates_tested"])
            want = (degree, witness, True, [str(F)], tested)
            if got != want:
                return f"certificate {got} != {want}"
            if witness is not None and not verify_tame_belyi(res["witness"], inst.S, inst.T).passed:
                return "witness fails full verification"
            return None

        label = f"{kind} q={q} S={'P1' if marked == 'all' else ','.join(marked)} d<={d_max}"
        return Op(label, lambda: minimal_belyi_degree(spec), check)

    def pass_ops(self, index):
        return self.ops


def fibre(f, b):
    """(orbit size, index) of every point over b (None for infinity), from factor alone.

    The points over b are the roots of num - b*den (den for infinity), one
    Galois orbit per irreducible factor, with its multiplicity as index;
    infinity lies over b with index d - deg(num - b*den) when that is positive.
    """
    g = f.den if b is None else f.num - f.den * b
    points = [(h.degree, m) for h, m in factor(g)[1]]
    if g.degree < f.degree:
        points.append((1, f.degree - g.degree))
    return points


def _branch_of(orbit):
    """The orbit's branch value: a base-field element, None for infinity, or "other"."""
    if orbit.branch_is_infinity:
        return None
    return "other" if orbit.branch_value is None else orbit.branch_value.value


@lru_cache(maxsize=None)  # the construct list builds the same maps every pass
def three_point_preimages(f):
    """Points over 0, 1 and inf, counted over the algebraic closure.

    By Riemann-Hurwitz the count is d + 2 exactly when f is tame and
    branched only over {0, 1, inf}.
    """
    F = f.field
    return sum(size for b in (F.zero, F.one, None) for size, _ in fibre(f, b))


# -- construct: the recipes, from tiny power maps to degree-250 wild composites


def _construction(label, make, degree, passed):
    def check(res):
        if (res.degree, res.verdict.passed) != (degree, passed):
            return f"(degree, passed) = {(res.degree, res.verdict.passed)}, expected {(degree, passed)}"
        if res.verdict.kind == "tame" and (three_point_preimages(res.map) == degree + 2) != passed:
            return f"{three_point_preimages(res.map)} points over 0, 1, inf contradict passed={passed}"
        return None

    return Op(label, make, check)


def _pipeline_op():
    F5 = FiniteField(5)
    desc = CoveringDescriptor.identity(F5, S=["2"], T=["3"])

    def check(rec):
        comp = rec["composite"]
        if rec["total_degree"] != 1 or comp is None or not comp.verdict.passed:
            return f"pipeline total degree {rec['total_degree']}, composite {comp!r}"
        return None

    return Op("tame_pipeline q=5 S={2} T={3}", lambda: tame_pipeline(desc, S=["2"], T=["3"]), check)


class ConstructWorkload:
    def __init__(self, seed):
        F3, F5, F7 = FiniteField(3), FiniteField(5), FiniteField(7)
        ops = [
            _construction(f"tame_power_map q={q}", lambda q=q: tame_power_map(q), q - 1, True)
            for q in (5, 7, 9, 13, 25, 27)
        ]
        red5 = BelyiInstance(F5, ["0", "1", "2", "inf"], [])
        red7 = BelyiInstance(F7, ["0", "1", "2", "3", "inf"], [])
        ops.append(_construction("tame_reduce_recursive q=5", lambda: tame_reduce_recursive(red5, "3"), 4, False))
        ops.append(_construction("tame_reduce_recursive q=7", lambda: tame_reduce_recursive(red7, "4"), 36, False))
        ops.append(_pipeline_op())
        for label, inst, degree in (
            ("wild_belyi_compose q=3 T={0}", BelyiInstance(F3, [], ["0"]), 54),
            ("wild_belyi_compose q=5 S={2}", BelyiInstance(F5, ["2"], []), 250),
        ):
            ops.append(_construction(label, lambda inst=inst: wild_belyi_compose(inst), degree, True))
        self.ops = ops

    def pass_ops(self, index):
        return self.ops


# -- verify: full tame verification of random separable maps

# (p, n, degree, how many base maps); the base maps are the first separable
# maps drawn from BASE_SEED, so they are not picked by cost
VERIFY_CLASSES = ((5, 1, 4, 2), (5, 1, 5, 2), (5, 1, 6, 2), (5, 2, 3, 2), (5, 2, 4, 2), (3, 6, 2, 2))
BASE_SEED = 2004


def _random_poly(F, d, rng):
    return Polynomial(F, [F.from_int_value(rng.randrange(F.q)) for _ in range(d + 1)])


def _random_map(F, d, rng):
    while True:
        num, den = _random_poly(F, d, rng), _random_poly(F, d, rng)
        if den.is_zero or not num.gcd(den).is_constant:
            continue
        f = RationalMap(num, den)
        if f.degree == d and not wronskian(f).is_zero:
            return f


def base_maps():
    rng = random.Random(BASE_SEED)
    out = []
    for p, n, d, k in VERIFY_CLASSES:
        F = FiniteField(p, n)
        out.extend(_random_map(F, d, rng) for _ in range(k))
    return out


def _random_unit(F, rng):
    return F.from_int_value(rng.randrange(1, F.q))


def _affine_conjugate(f, rng):
    """a*f(c*x + e) + b: a seeded map with the same ramification type as f.

    Affine changes on both sides fix infinity, so orbit sizes, indices and
    which orbits lie over infinity are unchanged, and so is the work that
    analyze does; only the coefficients, critical points and branch values
    move.
    """
    F = f.field
    a, c = _random_unit(F, rng), _random_unit(F, rng)
    b, e = F.from_int_value(rng.randrange(F.q)), F.from_int_value(rng.randrange(F.q))
    inner = RationalMap.from_polynomial(Polynomial(F, [e, c]))
    outer = RationalMap.from_polynomial(Polynomial(F, [b, a]))
    return outer.compose(f.compose(inner))


def ramification_type(report):
    points = sorted(
        (o.orbit_size, o.index, o.wild, o.is_infinity, o.branch_is_infinity) for o in report.points
    )
    return [[list(p) for p in points], sorted(bp.degree for bp in report.branch_points)]


def verdict_digest(verdict):
    """SHA-256 of the verdict and its full ramification report, as JSON."""
    doc = {"verdict": verdict.to_dict(), "report": verdict.report.to_dict()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class VerifyWorkload:
    def __init__(self, seed):
        self.seed = seed
        self.bases = base_maps()
        self.types = EXPECTED["verify_types"]
        self.digests = EXPECTED["verify_digests_seed%d" % DEFAULT_SEED]

    def pass_ops(self, index):
        rng = random.Random(f"verify:{self.seed}:{index}")
        ops = []
        for i, base in enumerate(self.bases):
            f = _affine_conjugate(base, rng)
            digest = self.digests[i] if self.seed == DEFAULT_SEED and index == 0 else None
            label = f"verify q={f.field.q} d={f.degree} #{i}"
            ops.append(Op(label, lambda f=f: verify_tame_belyi(f, (), ()), self._checker(f, i, digest)))
        return ops

    def _checker(self, f, i, digest):
        F, d = f.field, f.degree
        triple = (F.zero, F.one, None)

        def check(verdict):
            # The fibres over 0, 1, inf and every rational branch value,
            # recomputed by factoring, must hold exactly the report's
            # ramified orbits there.
            report = verdict.report
            others = [bp.rational_value() for bp in report.branch_points if not bp.is_infinity]
            others = [v for v in others if v is not None and v not in triple]
            preimages = 0
            for b in triple + tuple(others):
                points = fibre(f, b)
                if sum(size * e for size, e in points) != d:
                    return f"fibre over {b} has degree {sum(size * e for size, e in points)}, not {d}"
                ramified = sorted(pt for pt in points if pt[1] > 1)
                reported = sorted((o.orbit_size, o.index) for o in report.points if _branch_of(o) == b)
                if ramified != reported:
                    return f"ramification over {b}: factoring gives {ramified}, the report {reported}"
                if b in triple:
                    preimages += sum(size for size, _ in points)
            if verdict.passed != (preimages == d + 2):
                return f"passed={verdict.passed}, but 0, 1, inf have {preimages} preimages, and d + 2 = {d + 2}"
            if ramification_type(report) != self.types[i]:
                return f"ramification type {ramification_type(report)} != base {self.types[i]}"
            if digest is not None and verdict_digest(verdict) != digest:
                return "verdict digest differs from the recorded one"
            return None

        return check


# -- count: point counts, zeta fits and symmetric products of y^2 = f(x)

COUNT_FIELDS = ((5, 1), (7, 1), (3, 2))
COUNT_DEGREES = (3, 5)


def _random_curve(F, d, rng):
    while True:
        coeffs = [F.from_int_value(rng.randrange(F.q)) for _ in range(d)]
        coeffs.append(_random_unit(F, rng))
        try:
            return Hyperelliptic(F, Polynomial(F, coeffs))
        except PreconditionError:
            continue


def _count_all(curve):
    g, top = curve.genus, max(3, curve.genus + 1)
    counts = {m: count_points(curve, m) for m in range(1, top + 1)}
    zeta = zeta_fit(curve, {m: counts[m] for m in range(1, g + 1)})
    predicted = {m: zeta.predict_N(m) for m in counts}
    sym = {r: sym_product_count(counts, r) for r in (1, 2)}
    divisors = {r: enumerate_effective_divisors(curve, r) for r in (1, 2)}
    return counts, predicted, sym, divisors


def _check_counts(curve):
    def check(res):
        counts, predicted, sym, divisors = res
        if predicted != counts:
            return f"zeta predictions {predicted} != brute-force counts {counts}"
        if sym != divisors:
            return f"symmetric-product counts {sym} != divisor counts {divisors}"
        for m, n_m in counts.items():
            if not hasse_weil_check(curve.q, curve.genus, m, n_m):
                return f"N_{m} = {n_m} violates the Weil bound"
        return None

    return check


class CountWorkload:
    def __init__(self, seed):
        self.seed = seed
        self.fields = [FiniteField(p, n) for p, n in COUNT_FIELDS]

    def pass_ops(self, index):
        rng = random.Random(f"count:{self.seed}:{index}")
        ops = []
        for F in self.fields:
            for d in COUNT_DEGREES:
                curve = _random_curve(F, d, rng)
                ops.append(Op(f"count q={F.q} deg={d}", lambda c=curve: _count_all(c), _check_counts(curve)))
        return ops


class MapsWorkload:
    """One pass of verify, then construct, then count operations."""

    def __init__(self, seed):
        self.parts = [VerifyWorkload(seed), ConstructWorkload(seed), CountWorkload(seed)]

    def pass_ops(self, index):
        return [op for part in self.parts for op in part.pass_ops(index)]


WORKLOADS = {"search": SearchWorkload, "maps": MapsWorkload}
