import random

import pytest

from pbelyi.errors import InseparableMapError, PreconditionError
from pbelyi.factor import roots
from pbelyi.field import FiniteField, embed
from pbelyi.poly import Polynomial
from pbelyi.ramification import (
    analyze,
    discriminant_degree,
    is_simple_covering,
    verify_tame_belyi,
    verify_wild_belyi,
)
from pbelyi.ratmap import P1Point, RationalMap

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
            e = den.root_multiplicity(a)
        else:
            beta = num.evaluate(a) / dv
            e = (num - den * beta).root_multiplicity(a)
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
    eps = None if ext == report.field else embed(report.field, ext)
    out = {}
    for orbit in report.points:
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
    assert [(o.index, o.branch_label()) for o in report.points] == [(2, "0"), (2, "inf")]
    verdict = is_simple_covering(f)
    assert verdict.passed and not verdict.violations


def test_xi_map_report():
    xi = rmap(F5, (0, 1, 0, 0, 4))  # -x^4 + x
    report = analyze(xi)
    assert report.tame and report.rh_defect == 0
    assert report.splitting_degree == 2
    labels = [(o.place_label(), o.index, o.orbit_size, o.branch_label()) for o in report.points]
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
    skinny = analyze(xi, rep_degree_limit=1)
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
    assert pole.place_label() == "6,1" and pole.index == 2 and pole.branch_label() == "inf"
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
