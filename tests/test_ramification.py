import functools
import importlib.util
import random
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pbelyi import poly, ramification, ratmap
from pbelyi.constructions import BelyiInstance, CoveringDescriptor, wild_belyi_compose
from pbelyi.errors import InseparableMapError, InternalInconsistencyError, PreconditionError
from pbelyi.factor import factor, is_irreducible, roots, split_root
from pbelyi.field import FiniteField, digits, embed, galois_orbit
from pbelyi.poly import Polynomial
from pbelyi.ramification import (
    BranchPoint,
    RamOrbit,
    analyze,
    is_simple_covering,
    verify_tame_belyi,
    verify_wild_belyi,
)
from pbelyi.ratmap import P1Point, RationalMap, mobius_from_triple, p1_points, wronskian
from oracles import branch_poly_by_conjugates, conjugate_by_reciprocal, discriminant_degree, root_multiplicity

F3 = FiniteField(3)
F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2)


def rmap(field, num, den=(1,)):
    return RationalMap(Polynomial(field, num), Polynomial(field, den))


def pt(field, v):
    return P1Point(field, field.element(v))


def brute_indices(f, ext):
    """Ramification index at every point of the line over ext, by synthetic division."""
    num, den = f.num, f.den
    if ext != f.field:
        eps = embed(f.field, ext)
        num, den = num.map_coefficients(eps), den.map_coefficients(eps)
    out = {}
    for a in ext.elements():
        dv = den.evaluate(a)
        if dv.is_zero:
            e = root_multiplicity(den, a)
        else:
            beta = num.evaluate(a) / dv
            e = root_multiplicity(num - den * beta, a)
        if e >= 2:
            out[("a", a.int_value)] = e
    dn, dd = num.degree, den.degree
    if dn != dd:
        e = abs(dn - dd)
    else:
        beta = num.leading / den.leading
        e = dd - (num - den * beta).degree
    if e >= 2:
        out[("inf",)] = e
    return out


def expand_report(report, ext):
    """Geometric points of every report orbit over a splitting extension."""
    return expand_orbits(report.points, report.field, ext)


def expand_orbits(orbits, base, ext):
    """Geometric points of these orbits over an extension in which each of them splits."""
    eps = None if ext == base else embed(base, ext)
    out = {}
    for orbit in orbits:
        if orbit.is_infinity:
            out[("inf",)] = orbit.index
            continue
        mp = orbit.min_poly if eps is None else orbit.min_poly.map_coefficients(eps)
        rs = roots(mp)
        assert len(rs) == orbit.orbit_size
        for r in rs:
            out[("a", r.int_value)] = orbit.index
    return out


def test_power_map_report():
    report = analyze(rmap(F5, (0, 0, 0, 0, 1)))
    assert report.degree == 4
    assert report.tame
    assert report.rh_defect == 0
    assert report.splitting_degree == 1
    assert [(o.place_label(), o.index, o.orbit_size) for o in report.points] == [
        ("0,1", 4, 1),
        ("inf", 4, 1),
    ]
    assert [b.label() for b in report.branch_points] == ["0", "inf"]
    assert discriminant_degree(rmap(F5, (0, 0, 0, 0, 1))) == 6


def test_square_map_is_simple():
    f = rmap(F7, (0, 0, 1))
    report = analyze(f)
    assert [(o.index, o.branch.label()) for o in report.points] == [(2, "0"), (2, "inf")]
    verdict = is_simple_covering(f)
    assert verdict.passed and not verdict.violations


def test_xi_map_report(monkeypatch):
    xi = rmap(F5, (0, 1, 0, 0, 4))  # -x^4 + x
    report = analyze(xi)
    assert report.tame and report.rh_defect == 0
    assert report.splitting_degree == 2
    labels = [(o.place_label(), o.index, o.orbit_size, o.branch.label()) for o in report.points]
    assert labels == [
        ("1,1", 2, 1, "3"),
        ("1,4,1", 2, 2, "minpoly:4,3,1"),
        ("inf", 4, 1, "inf"),
    ]
    branches = {b.label(): b for b in report.branch_points}
    assert set(branches) == {"3", "minpoly:4,3,1", "inf"}
    deep = branches["minpoly:4,3,1"]
    assert deep.degree == 2
    assert deep.representative is not None
    assert str(deep.representative.field) == "5^2"
    monkeypatch.setattr(ramification, "REP_DEGREE_LIMIT", 1)
    skinny = analyze(xi)
    assert [b.representative for b in skinny.branch_points if b.degree == 2] == [None]


def test_report_dict_shape():
    d = analyze(rmap(F5, (0, 1, 0, 0, 4))).to_dict()
    assert set(d) == {
        "field",
        "map",
        "degree",
        "separable",
        "tame",
        "points",
        "branch_set",
        "rh_defect",
        "splitting_degree",
    }
    assert d["points"][0] == {
        "min_poly": "1,1",
        "index": 2,
        "wild": False,
        "orbit_size": 1,
        "branch_image": "3",
    }
    assert analyze(rmap(F5, (0, 1, 0, 0, 4))).to_dict() == d


def test_cubic_with_pole_is_not_simple():
    f = rmap(F7, (0, 4, 0, 1))  # x^3 - 3x
    report = analyze(f)
    assert report.tame
    assert {(o.place_label(), o.index) for o in report.points} == {("6,1", 2), ("1,1", 2), ("inf", 3)}
    verdict = is_simple_covering(f)
    assert not verdict.passed
    assert any("index 3" in v and "not 2" in v for v in verdict.violations)


def test_double_pole_map_is_simple():
    f = rmap(F7, (1,), (1, 5, 1))  # 1/(x - 1)^2
    report = analyze(f)
    pole = report.points[0]
    assert pole.place_label() == "6,1" and pole.index == 2 and pole.branch.label() == "inf"
    assert is_simple_covering(f).passed


def test_branch_set_dedupes_shared_values():
    f = rmap(F7, (1, 0, 5, 0, 1))  # (x^2 - 1)^2
    report = analyze(f)
    assert [b.label() for b in report.branch_points] == ["0", "1", "inf"]
    assert len(report.points) == 4
    verdict = verify_tame_belyi(f, marked=[pt(F7, 0), pt(F7, 1), pt(F7, 6), P1Point.infinity(F7)])
    assert verdict.passed
    simple = is_simple_covering(f)
    assert not simple.passed
    assert any("expected 1" in v for v in simple.violations)


def test_wild_cubic_report_and_verdicts():
    f = rmap(F3, (0, 1, 0, 1))  # x^3 + x
    report = analyze(f)
    assert not report.tame
    assert report.rh_defect == 2
    assert [(o.place_label(), o.index, o.wild) for o in report.points] == [("inf", 3, True)]
    assert verify_wild_belyi(f, avoided=[pt(F3, 0)]).passed
    bad = verify_wild_belyi(f, marked=[pt(F3, 0)])
    assert not bad.passed and "maps to 0, not to inf" in bad.violations[0]
    tame = verify_tame_belyi(f)
    assert not tame.passed
    assert any("divisible by the characteristic" in v for v in tame.violations)
    assert discriminant_degree(f) == 2


def test_inseparable_handling():
    f = rmap(F3, (0, 0, 0, 1))  # x^3
    with pytest.raises(InseparableMapError):
        analyze(f)
    verdict = verify_tame_belyi(f)
    assert not verdict.passed and "inseparable" in verdict.violations
    with pytest.raises(InseparableMapError):
        verify_wild_belyi(f)
    assert not is_simple_covering(f).passed


def test_inseparable_verdicts_keep_their_order_of_checks(monkeypatch):
    """analyze alone decides separability, so each verifier call computes one Wronskian."""
    calls = []
    real = ramification.wronskian
    monkeypatch.setattr(ramification, "wronskian", lambda g: calls.append(g) or real(g))
    f = rmap(F3, (0, 0, 0, 1))  # x^3
    # tame: the sets are validated first, then the points are read, then "inseparable"
    with pytest.raises(PreconditionError, match="point 0 is both marked and avoided"):
        verify_tame_belyi(f, marked=[pt(F3, 0)], avoided=[pt(F3, 0)])
    assert calls == []
    tame = verify_tame_belyi(f, marked=[pt(F3, 2)], avoided=[pt(F3, 1)])
    assert tame.violations == (
        "marked point 2 maps to 2, outside {0, 1, inf}",
        "avoided point 1 maps to 1, inside {0, 1, inf}",
        "inseparable",
    )
    assert not tame.passed and tame.report is None
    simple = is_simple_covering(f)
    assert simple.violations == ("inseparable",) and not simple.passed
    # wild: inseparable input raises before the sets are validated
    with pytest.raises(InseparableMapError, match="map is inseparable"):
        verify_wild_belyi(f, marked=[pt(F3, 0)], avoided=[pt(F3, 0)])
    with pytest.raises(InseparableMapError):
        verify_wild_belyi(f, marked=[pt(F5, 0)])
    assert len(calls) == 4
    g = rmap(F5, (0, 0, 0, 0, 1))
    for verify in (verify_tame_belyi, verify_wild_belyi, is_simple_covering):
        calls.clear()
        verify(g)
        assert calls == [g]


def test_set_validation():
    f = rmap(F5, (0, 0, 1))
    with pytest.raises(PreconditionError):
        verify_tame_belyi(f, marked=[pt(F5, 0)], avoided=[pt(F5, 0)])
    with pytest.raises(PreconditionError):
        verify_tame_belyi(f, marked=[pt(F7, 0)])
    with pytest.raises(PreconditionError):
        verify_tame_belyi(rmap(F5, (2,)))


def test_tame_verdict_marked_avoided():
    f = rmap(F5, (0, 0, 0, 0, 1))
    good = verify_tame_belyi(f, marked=[pt(F5, 0), pt(F5, 1), P1Point.infinity(F5)])
    assert good.passed
    bad = verify_tame_belyi(f, avoided=[pt(F5, 2)])  # 2^4 = 1
    assert not bad.passed
    assert bad.violations == ("avoided point 2 maps to 1, inside {0, 1, inf}",)
    mixed = verify_tame_belyi(f, marked=[pt(F5, 2)], avoided=[pt(F5, 3)])  # 3^4 = 1
    assert mixed.violations == ("avoided point 3 maps to 1, inside {0, 1, inf}",)


ORACLE_CASES = [
    (F5, (0, 1, 0, 0, 4), (1,), 2),
    (F3, (1, 2, 0, 1), (1, 0, 1), 3),
    (F5, (0, 0, 0, 0, 1), (1, 0, 1), 2),
    (F7, (1,), (1, 5, 1), 1),
    (F9, ([0], [0], [0, 1], [0], [1]), ([1],), 1),
]


@pytest.mark.parametrize("field,num,den,ext_mult", ORACLE_CASES)
def test_indices_match_brute_force(field, num, den, ext_mult):
    f = rmap(field, num, den)
    report = analyze(f)
    assert ext_mult % report.splitting_degree == 0
    ext = field if ext_mult == 1 else FiniteField(field.p, field.n * ext_mult)
    assert expand_report(report, ext) == brute_indices(f, ext)


@pytest.mark.parametrize("field,num,den,ext_mult", ORACLE_CASES)
def test_branch_values_match_brute_force(field, num, den, ext_mult):
    f = rmap(field, num, den)
    report = analyze(f)
    ext = field if ext_mult == 1 else FiniteField(field.p, field.n * ext_mult)
    eps = None if ext == field else embed(field, ext)
    fe = f if eps is None else f.map_coefficients(eps)
    brute = set()
    for key in brute_indices(f, ext):
        if key == ("inf",):
            brute.add(fe(P1Point.infinity(ext)))
        else:
            brute.add(fe(P1Point(ext, ext.from_int_value(key[1]))))
    expected = set()
    for bp in report.branch_points:
        if bp.is_infinity:
            expected.add(P1Point.infinity(ext))
            continue
        mp = bp.min_poly if eps is None else bp.min_poly.map_coefficients(eps)
        rs = roots(mp)
        assert len(rs) == bp.degree
        expected.update(P1Point(ext, r) for r in rs)
    assert brute == expected


def test_nine_element_field_report():
    z = F9.gen
    f = RationalMap(
        Polynomial(F9, (F9.zero, F9.zero, z, F9.zero, F9.one)),  # x^4 + z x^2
        Polynomial.one(F9),
    )
    report = analyze(f)
    assert report.tame and report.rh_defect == 0
    assert [b.label() for b in report.branch_points] == ["0,0", "1,0", "inf"]
    marked = [pt(F9, [0, 0]), pt(F9, [2, 1]), pt(F9, [1, 2]), P1Point.infinity(F9)]
    assert verify_tame_belyi(f, marked=marked).passed


def test_randomized_reports_stay_consistent():
    rng = random.Random(909)
    fields = [F3, F5]
    done = 0
    while done < 50:
        fld = fields[done % 2]
        num = [rng.randrange(fld.q) for _ in range(rng.randrange(2, 6))]
        den = [rng.randrange(fld.q) for _ in range(rng.randrange(1, 5))]
        try:
            f = rmap(fld, num, den)
        except PreconditionError:
            continue
        if f.is_constant:
            continue
        try:
            report = analyze(f)
        except InseparableMapError:
            continue
        # internal invariants: defect nonnegative, zero exactly in the tame case
        assert report.rh_defect >= 0
        assert (report.rh_defect == 0) == report.tame
        assert sum(o.orbit_size * (o.index - 1) for o in report.points) == 2 * f.degree - 2 - report.rh_defect
        done += 1


def test_mobius_has_empty_report():
    f = rmap(F5, (1, 1), (3, 1))
    report = analyze(f)
    assert report.points == () and report.branch_points == ()
    assert report.rh_defect == 0 and report.tame
    assert is_simple_covering(f).passed


# -- the extension-field analyze that the residue-field one replaced, kept as an oracle


def ext_affine_orbit(f, g):
    """A critical orbit worked out at a root of g in the canonical F_{q^deg g}."""
    base = f.field
    d = g.degree
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
    index = root_multiplicity(num - den * beta, root)
    bmp_ext = Polynomial.from_roots(ext, galois_orbit(beta, base))
    bmp = bmp_ext if eps is None else Polynomial(base, [eps.section(c) for c in bmp_ext.coeffs])
    if bmp.degree == 1:
        branch = BranchPoint(bmp, 1, P1Point(base, -bmp.coeff(0)))
    else:
        branch = BranchPoint(bmp, bmp.degree)
    return RamOrbit(g, index, d, branch, base.p)


def reciprocal_infinity_orbit(f):
    """The point at infinity as the point 0 of f(1/x)."""
    base = f.field
    conj = conjugate_by_reciprocal(f)
    zero = base.zero
    if conj.den.evaluate(zero).is_zero:
        index = root_multiplicity(conj.den, zero)
        branch = BranchPoint(None, 1, P1Point.infinity(base))
    else:
        beta = conj.num.evaluate(zero) / conj.den.evaluate(zero)
        index = root_multiplicity(conj.num - conj.den * beta, zero)
        branch = BranchPoint(Polynomial(base, (-beta, base.one)), 1, P1Point(base, beta))
    if index < 2:
        return None
    return RamOrbit(None, index, 1, branch, base.p)


def all_roots_branches(base, orbits, rep_degree_limit=12):
    """Branch points whose representative is the least of all roots of the minimal polynomial.

    Every orbit is pointed at the new record of its branch orbit.
    """
    seen = {}
    for orbit in orbits:
        key = orbit.branch.key()
        if key not in seen:
            bmp = orbit.branch.min_poly
            if bmp is None:
                seen[key] = BranchPoint(None, 1, P1Point.infinity(base))
            else:
                rep = None
                if bmp.degree <= rep_degree_limit:
                    fld = FiniteField(base.p, base.n * bmp.degree)
                    rep = P1Point(fld, roots(bmp.map_coefficients(embed(base, fld)))[0])
                seen[key] = BranchPoint(bmp, bmp.degree, rep)
        orbit.branch = seen[key]
    return tuple(sorted(seen.values(), key=BranchPoint.sort_key))


def extension_field_report(f):
    with mock.patch.multiple(
        ramification,
        _affine_orbit=lambda f, g, _m: ext_affine_orbit(f, g),
        _infinity_orbit=reciprocal_infinity_orbit,
        _collect_branches=functools.partial(all_roots_branches, f.field),
    ):
        return analyze(f)


ORACLE_FIELDS = (F3, F5, F7, F9, FiniteField(5, 2), FiniteField(3, 3))


def _random_poly(field, codes):
    return Polynomial(field, [field.from_int_value(c) for c in codes])


@st.composite
def separable_maps(draw, fields=ORACLE_FIELDS, max_degree=6):
    """A separable map: random num/den, or x^k or x^p + c x between Moebius maps."""
    field = draw(st.sampled_from(fields))
    code = st.integers(0, field.q - 1)
    shape = draw(st.sampled_from(("random", "random", "power", "additive")))
    if shape == "random":
        d = draw(st.integers(1, max_degree))
        num = _random_poly(field, draw(st.lists(code, min_size=d + 1, max_size=d + 1)))
        den = _random_poly(field, draw(st.lists(code, min_size=1, max_size=d + 1)))
        assume(not den.is_zero)
        f = RationalMap(num, den)
    else:
        x = Polynomial.x(field)
        if shape == "power":
            core = x ** draw(st.integers(2, max_degree))
        else:  # wild at infinity: the index there is p
            assume(field.p <= max_degree)
            core = x ** field.p + x * field.from_int_value(draw(code))
        triple = st.lists(st.sampled_from(p1_points(field)), min_size=3, max_size=3, unique=True)
        outer = mobius_from_triple(*draw(triple))
        inner = mobius_from_triple(*draw(triple))
        f = outer.compose(RationalMap.from_polynomial(core).compose(inner))
    assume(not f.is_constant and not wronskian(f).is_zero)
    return f


@settings(max_examples=120)
@given(f=separable_maps())
def test_residue_field_report_matches_the_extension_field_one(f):
    assert analyze(f).to_dict() == extension_field_report(f).to_dict()


@settings(max_examples=60)
@given(f=separable_maps(fields=(F3, F5, F7, F9), max_degree=5))
def test_orbit_indices_match_brute_force_fibres(f):
    report = analyze(f)
    s = report.splitting_degree
    assume(f.field.q ** s <= 729)
    ext = f.field if s == 1 else FiniteField(f.field.p, f.field.n * s)
    assert expand_report(report, ext) == brute_indices(f, ext)


@settings(max_examples=60)
@given(f=separable_maps(fields=(F3, F5, F7, F9), max_degree=5))
def test_branch_partitions_match_brute_force_fibres(f):
    """Over the splitting field, the partition that CoveringDescriptor.from_map
    gives a branch orbit is the fibre partition at each of its geometric points."""
    s = analyze(f).splitting_degree
    assume(f.field.q ** s <= 729)
    ext = f.field if s == 1 else FiniteField(f.field.p, f.field.n * s)
    eps = None if ext == f.field else embed(f.field, ext)
    fe = f if eps is None else f.map_coefficients(eps)
    fibres = {}
    for key, e in brute_indices(f, ext).items():
        point = P1Point.infinity(ext) if key == ("inf",) else P1Point(ext, ext.from_int_value(key[1]))
        fibres.setdefault(fe(point), []).append(e)
    brute = {b: tuple(sorted(es + [1] * (f.degree - sum(es)), reverse=True)) for b, es in fibres.items()}
    derived = {}
    for mp, partition in CoveringDescriptor.from_map(f).branch:
        if mp is None:
            derived[P1Point.infinity(ext)] = partition
        else:
            for r in roots(mp if eps is None else mp.map_coefficients(eps)):
                derived[P1Point(ext, r)] = partition
    assert derived == brute


@settings(max_examples=100)
@given(f=separable_maps())
@example(f=rmap(F7, (1, 0, 5, 0, 1)))  # (x^2 - 1)^2: the orbits 1 and -1 lie over 0
@example(f=rmap(F7, (1,), (0, 0, 1, 5, 1)))  # 1 / (x^2 (x - 1)^2): two double poles over inf
def test_orbits_share_the_report_branch_records(f):
    report = analyze(f)
    for orbit in report.points:
        assert any(orbit.branch is bp for bp in report.branch_points)
        assert orbit.branch_is_infinity == orbit.branch.is_infinity
        value = orbit.branch.rational_value()
        assert orbit.branch_value == (None if value is None else P1Point(f.field, value))


@settings(max_examples=150)
@given(f=separable_maps(max_degree=8))
def test_infinity_from_degrees_matches_the_reciprocal_map(f):
    new, ref = ramification._infinity_orbit(f), reciprocal_infinity_orbit(f)
    if ref is None:
        assert new is None
        return
    assert new.to_dict() == ref.to_dict()
    assert (new.branch_is_infinity, new.branch.min_poly, new.branch_value) == (
        ref.branch_is_infinity,
        ref.branch.min_poly,
        ref.branch_value,
    )


def count_field_builds(monkeypatch):
    """A list that gets the arguments of every FiniteField built from now on.

    A call that returns an interned field builds nothing and is not listed:
    its __init__ meets the slots already set.
    """
    built = []
    real_init = FiniteField.__init__

    def counting_init(self, *args, **kwargs):
        if not hasattr(self, "p"):
            built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "__init__", counting_init)
    return built


def test_rational_branch_values_need_no_field(monkeypatch, cold_fields):
    # (x^2 - 2)^2 over F_5: the critical orbit x^2 - 2 has degree 2, but
    # every branch value (0, 4 and inf) is rational
    f = rmap(F5, (4, 0, 1, 0, 1))
    built = count_field_builds(monkeypatch)
    report = analyze(f)
    assert built == []
    assert [(o.place_label(), o.index, o.orbit_size) for o in report.points] == [
        ("0,1", 2, 1),
        ("3,0,1", 2, 2),
        ("inf", 4, 1),
    ]
    assert [b.label() for b in report.branch_points] == ["0", "4", "inf"]
    assert all(b.representative.field == F5 for b in report.branch_points)


def eager_representative(bp):
    """The display representative built at once: canonical field, split_root, least of the orbit."""
    base = bp.min_poly.field
    fld = FiniteField(base.p, base.n * bp.degree)
    root = split_root(bp.min_poly.map_coefficients(embed(base, fld)))
    return P1Point(fld, galois_orbit(root, base)[0])


F25 = FiniteField(5, 2)
LAZY_CASES = [
    # -x^4 + x over F_5: one branch orbit of degree 2
    (rmap(F5, (0, 1, 0, 0, 4)), [2]),
    # a random degree-4 map over F_25 (drawn from random.Random(25)): two branch orbits of degree 3
    (rmap(F25, ([1], [4, 1], [3, 3], [3, 2], [3]), ([3, 3], [3], [3, 3], [1, 4], [3, 4])), [3, 3]),
]


@pytest.mark.parametrize("f,degrees", LAZY_CASES)
def test_analyze_builds_no_field_and_representatives_build_one_on_first_read(monkeypatch, cold_fields, f, degrees):
    # a display field's modulus search works over the prime field; intern
    # that first, so that only display fields are built below
    FiniteField(f.field.p)
    built = count_field_builds(monkeypatch)
    report = analyze(f)
    assert built == []
    lazy = [bp for bp in report.branch_points if bp.degree > 1]
    assert [bp.degree for bp in lazy] == degrees
    display = [(f.field.p, f.field.n * degrees[0])]
    first = lazy[0].representative
    assert built == display
    assert lazy[0].representative is first
    assert built == display
    # orbits of the same degree share the interned display field
    assert [bp.representative.field for bp in lazy[1:]] == [first.field] * (len(lazy) - 1)
    assert all(bp.representative.field is first.field for bp in lazy)
    assert built == display
    expected = [eager_representative(bp) for bp in lazy]
    assert [bp.representative for bp in lazy] == expected
    assert all(str(bp.representative.field) == str(e.field) for bp, e in zip(lazy, expected))


@settings(max_examples=60)
@given(f=separable_maps())
def test_lazy_representatives_are_invisible(f):
    # a report printed at once, against reports whose branch points a verifier has already read
    first = analyze(f).to_dict()
    for verdict in (verify_tame_belyi(f), verify_wild_belyi(f), is_simple_covering(f)):
        assert verdict.report.to_dict() == first
        assert verdict.report.to_dict() == first


# -- indices from the Wronskian multiplicity and Hasse derivatives


F27 = FiniteField(3, 3)
BRUTE_LIMIT = 729  # the largest field that brute force scans point by point


def assert_indices_match_brute_force(f, k):
    """Every report orbit whose points lie in F_{q^k} against brute force at every point there.

    An orbit of size d has its points in F_{q^k} exactly when d divides k.
    """
    report = analyze(f)
    base = f.field
    ext = base if k == 1 else FiniteField(base.p, base.n * k)
    split = [o for o in report.points if o.is_infinity or k % o.orbit_size == 0]
    assert expand_orbits(split, base, ext) == brute_indices(f, ext), str(f)
    return report


def _largest_scan(f):
    """The largest k dividing the splitting degree with q^k at most BRUTE_LIMIT."""
    s, q = analyze(f).splitting_degree, f.field.q
    return max(k for k in range(1, s + 1) if s % k == 0 and q ** k <= BRUTE_LIMIT)


def _random_separable(field, rng, den_factors=False):
    """A random separable map of degree 2 to 6; with den_factors its denominator has repeated factors."""
    while True:
        d = rng.randrange(2, 7)
        num = _random_poly(field, [rng.randrange(field.q) for _ in range(d + 1)])
        if den_factors:
            den = Polynomial.one(field)
            while den.degree < 2:
                g = _random_poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 3))] + [1])
                den = den * g ** rng.randrange(2, field.p + 2)
        else:
            den = _random_poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, d + 2))])
        if den.is_zero:
            continue
        f = RationalMap(num, den)
        if not f.is_constant and not wronskian(f).is_zero:
            return f


@pytest.mark.parametrize("field", (F3, F5, F7, F9, F25, F27), ids=str)
def test_indices_match_brute_force_on_random_maps_and_poles(field):
    """Random maps, and maps whose denominators have factors of multiplicity 2 to
    p + 1, so that poles of every index up to p + 1 come up, wild ones included."""
    rng = random.Random(f"hasse:{field}")
    poles = 0
    for den_factors in (False, True):
        for _ in range(6):
            f = _random_separable(field, rng, den_factors)
            report = assert_indices_match_brute_force(f, _largest_scan(f))
            poles += sum(1 for o in report.points if o.branch.is_infinity and not o.is_infinity)
    assert poles >= 6


WILD_AFFINE = [
    # (field, num, den, index at 0): p | e and e < m + 1, m the Wronskian multiplicity at 0
    (F3, (0, 0, 0, 1, 0, 0, 0, 1), (1,), 3),  # x^3 + x^7: m = 6
    (F5, (0, 0, 0, 0, 0, 1, 1), (1,), 5),  # x^5 + x^6: m = 5
    (F3, (0,) * 9 + (1, 1), (1,), 9),  # x^9 + x^10: m = 9, tries j = 3, 6, 9
    (F3, (1,), (0, 0, 0, 1, 0, 0, 0, 1), 3),  # 1 / (x^3 + x^7): a wild pole, m = 6
    (F9, (0, 0, 0, 1, 0, 0, 0, [0, 1]), (1, 1), 3),  # x^3 + z x^7 over (x + 1)
    (F25, (0, 0, 0, 0, 0, 1, 0, [1, 1]), (1,), 5),  # x^5 + (1 + z) x^7
]


@pytest.mark.parametrize("field,num,den,index", WILD_AFFINE)
def test_wild_indices_below_the_wronskian_order_match_brute_force(field, num, den, index):
    f = rmap(field, num, den)
    x = Polynomial.x(field)
    (m,) = [m for g, m in factor(wronskian(f))[1] if g == x]
    assert index % field.p == 0 and index < m + 1
    report = assert_indices_match_brute_force(f, 1)
    assert [o.index for o in report.points if o.min_poly == x] == [index]


@pytest.mark.parametrize(
    "inst,ks",
    [(BelyiInstance(F3, [], ["0"]), (1, 2)), (BelyiInstance(F5, ["2"], []), (1, 2))],
    ids=["q3", "q5"],
)
def test_wild_composite_indices_match_brute_force(inst, ks):
    f = wild_belyi_compose(inst).map
    for k in ks:
        report = assert_indices_match_brute_force(f, k)
    assert not report.tame and any(o.wild and not o.is_infinity for o in report.points)


def _poly_of_code(field, code, length):
    return Polynomial(field, [field.from_int_value(c) for c in digits(code, field.q, length)])


def _irreducibles(field, degree, count):
    """The first count monic irreducibles of this degree, in code order."""
    monics = (_poly_of_code(field, code, degree) + Polynomial.x(field) ** degree for code in range(field.q ** degree))
    return list(islice(filter(is_irreducible, monics), count))


UNDERSTATED = [
    # (field, num, den, the min_poly of the orbit, its index and Wronskian multiplicity)
    (F7, (0, 0, 0, 0, 0, 0, 1), (1,), (0, 1), 6, 5),  # x^6 at 0
    (F7, (1,), (0, 0, 0, 0, 0, 0, 1), (0, 1), 6, 5),  # 1 / x^6: a pole
    (F3, (0, 0, 0, 1, 0, 0, 0, 1), (1,), (0, 1), 3, 6),  # x^3 + x^7: wild at 0
    (F5, (1, 0, 2, 0, 4, 0, 3, 0, 1), (1,), (2, 0, 1), 4, 3),  # (x^2 + 2)^4: an orbit of size 2
    (F5, (1,), (1, 0, 2, 0, 4, 0, 3, 0, 1), (2, 0, 1), 4, 3),  # its reciprocal: a pole orbit
]


def test_index_refuses_an_understated_wronskian_multiplicity():
    """_index reads e off m; with m below e - 1 no candidate fits, and it raises."""
    for field, num, den, gv, index, m in UNDERSTATED:
        f, g = rmap(field, num, den), Polynomial(field, gv)
        assert [mm for h, mm in factor(wronskian(f))[1] if h == g] == [m]
        beta = None if (f.den % g).is_zero else (f.num % g) * f.den.inverse_mod(g) % g
        assert ramification._index(f, g, m, beta) == index
        for low in range(1, index - 1):
            with pytest.raises(InternalInconsistencyError, match="Wronskian multiplicity"):
                ramification._index(f, g, low, beta)


@pytest.mark.parametrize("field,degrees", [(F5, (1, 2, 3, 4)), (F9, (1, 2, 3))], ids=str)
def test_euclid_inverse_matches_the_fermat_inverse(field, degrees):
    """Every unit a modulo an irreducible g of degree d: a^(q^d - 2) is its inverse in F_q[x]/(g)."""
    for d in degrees:
        for g in _irreducibles(field, d, 2):
            one = Polynomial.one(field)
            for code in range(1, field.q ** d):
                a = _poly_of_code(field, code, d)
                inv = a.inverse_mod(g)
                assert inv == a.powmod(field.q ** d - 2, g), (g, a)
                assert inv.degree < d and a * inv % g == one
    # a multiple of the modulus, or of a factor of a reducible one, is no unit
    x = Polynomial.x(field)
    for a, mod in ((Polynomial(field), x + 1), (x * (x + 1), (x + 1) * (x + 2)), (x, x ** 2)):
        with pytest.raises(PreconditionError, match="not a unit"):
            a.inverse_mod(mod)


def _benchmark_base_maps():
    """The base maps of the benchmark's verify list, read from perfbench/workloads.py."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.base_maps()


def test_analyze_forms_no_fibre_divides_no_pole_and_raises_no_fermat_power():
    """analyze reads every index off the Wronskian multiplicity and every branch
    polynomial off a linear relation among powers: it calls no homogenize and
    no powmod (the repeated-division multiplicity and the product over the
    Frobenius conjugates have left the library for tests/oracles.py).

    factor's distinct-degree and equal-degree stages raise to powers on
    purpose, so each Wronskian is factored before the patches and handed to
    analyze.
    """
    maps = _benchmark_base_maps()
    maps += [wild_belyi_compose(inst).map for inst in (BelyiInstance(F3, [], ["0"]), BelyiInstance(F5, ["2"], []))]
    factored = {wronskian(f): factor(wronskian(f)) for f in maps}
    expected = [analyze(f).to_dict() for f in maps]

    def refuse(*args, **kwargs):
        raise AssertionError("analyze called a slow path")

    with mock.patch.object(ratmap, "homogenize", refuse), mock.patch.object(
        poly.Polynomial, "powmod", refuse
    ), mock.patch.object(ramification, "factor", factored.__getitem__):
        reports = [analyze(f) for f in maps]
    assert [r.to_dict() for r in reports] == expected  # a representative's split_root raises to powers


@pytest.mark.parametrize(
    "field", (F3, F5, F7, FiniteField(11), F9, F25, F27, FiniteField(3, 6)), ids=str
)
def test_branch_polynomials_match_the_conjugate_product(field):
    """The minimal polynomial of beta as a linear relation among its powers equals
    prod (y - beta^(q^j)) over its Frobenius conjugates, on every affine orbit of
    130 seeded separable maps per field (1,040 in all)."""
    rng = random.Random(f"minpoly:{field}")
    sizes = set()
    for i in range(130):
        f = _random_separable(field, rng, den_factors=i % 4 == 0)
        for g, m in factor(wronskian(f))[1]:
            if not (f.den % g).is_zero:
                bmp = ramification._affine_orbit(f, g, m).branch.min_poly
                assert bmp == branch_poly_by_conjugates(f, g), (f, g)
                sizes.add((g.degree, bmp.degree))
    # orbits of degree 5 and more; over the prime fields also branch values in a proper subfield of K
    assert any(k == d >= 5 for d, k in sizes) and (field.n > 1 or any(k < d for d, k in sizes))


def test_a_branch_relation_of_a_degree_not_dividing_deg_g_is_an_internal_error():
    """Over a reducible g = x (x + 1) (x + 2) the powers of beta = x^2 + x meet a
    relation of degree 2, which no orbit of a root of an irreducible cubic can have."""
    g = Polynomial(F3, [0, 2, 0, 1])  # x^3 - x
    with pytest.raises(InternalInconsistencyError, match="degree dividing 3"):
        ramification._min_poly(Polynomial(F3, [0, 1, 1]), g)
    g = Polynomial(F3, [1, 2, 0, 1])  # x^3 - x + 1, irreducible: x is a root of itself
    assert ramification._min_poly(Polynomial.x(F3), g) == g
