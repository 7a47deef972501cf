import random
from fractions import Fraction
from math import factorial

import pytest

from pbelyi import counting
from pbelyi.bounds import tame_bound, tame_bound_parts, wild_N, wild_bound
from pbelyi import field as field_module
from pbelyi.counting import (
    CurvePoint,
    Hyperelliptic,
    ProjectiveLine,
    ZetaData,
    closed_point_counts,
    count_points,
    curve_points,
    enumerate_effective_divisors,
    hasse_weil_check,
    parse_curve,
    point_counts,
    sym_product_count,
    zeta_fit,
)
from pbelyi.errors import GuardExceededError, InternalInconsistencyError, PreconditionError
from pbelyi.field import FiniteField, _value_ops, digits, embed
from pbelyi.poly import Polynomial
from pbelyi.ratmap import P1Point, p1_points
from oracles import pick_points, projective_space_count, sym_count_bounds_check
from test_poly_factor import rabin_is_irreducible

F3 = FiniteField(3)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)

LINE3 = ProjectiveLine(F3)
LINE5 = ProjectiveLine(F5)
ELLIPTIC5 = Hyperelliptic(F5, Polynomial(F5, (0, 1, 0, 1)))  # y^2 = x^3 + x
ELLIPTIC3 = Hyperelliptic(F3, Polynomial(F3, (0, 2, 0, 1)))  # y^2 = x^3 - x
GENUS2 = Hyperelliptic(F3, Polynomial(F3, (1, 2, 0, 0, 0, 1)))  # y^2 = x^5 - x + 1
EVEN_SQ = Hyperelliptic(F3, Polynomial(F3, (1, 0, 0, 0, 1)))  # y^2 = x^4 + 1
EVEN_NONSQ = Hyperelliptic(F3, Polynomial(F3, (1, 0, 0, 0, 2)))  # y^2 = 2 x^4 + 1


def brute_count(curve, m):
    """Independent oracle: test y*y == f(x) for every pair, plus literal infinity handling."""
    base = curve.field
    nm = base.n * m
    ext = base if nm == base.n else FiniteField(base.p, nm)
    f = curve.f if ext == base else curve.f.map_coefficients(embed(base, ext))
    total = 0
    for x in ext.elements():
        fx = f.evaluate(x)
        for y in ext.elements():
            if y * y == fx:
                total += 1
    if f.degree % 2 == 1:
        return total + 1
    lc = f.leading
    return total + sum(1 for y in ext.elements() if y * y == lc)


def test_model_validation():
    with pytest.raises(PreconditionError):
        Hyperelliptic(F3, Polynomial(F3, (1, 1)))  # degree too small
    with pytest.raises(PreconditionError):
        Hyperelliptic(F3, Polynomial(F3, (0, 0, 0, 1)))  # x^3 is a cube
    with pytest.raises(PreconditionError):
        Hyperelliptic(F5, Polynomial(F5, (0, 0, 1, 1)))  # x^2 (x + 1)
    with pytest.raises(PreconditionError):
        Hyperelliptic(F5, Polynomial(F3, (0, 2, 0, 1)))
    assert LINE3.genus == 0
    assert ELLIPTIC5.genus == 1
    assert Hyperelliptic(F5, Polynomial(F5, (1, 1, 0, 0, 1))).genus == 1
    assert GENUS2.genus == 2
    assert Hyperelliptic(F3, Polynomial(F3, (2, 1, 0, 0, 0, 0, 1))).genus == 2


def test_projective_line_counts():
    assert count_points(LINE3, 2) == 10
    assert count_points(LINE5, 1) == 6
    with pytest.raises(GuardExceededError):
        count_points(LINE3, 20)
    assert count_points(LINE3, 20, guard=4 * 10**9) == 3**20 + 1


def test_hyperelliptic_worked_counts():
    # solutions of y^2 = x^3 + x over F_5 sit at x in {0, 2, 3}, all with y = 0
    assert count_points(ELLIPTIC5, 1) == 4
    assert count_points(ELLIPTIC3, 1) == 4
    assert count_points(EVEN_SQ, 1) == 4  # two points at infinity
    assert count_points(EVEN_NONSQ, 1) == 4  # no points at infinity


@pytest.mark.parametrize("curve", [ELLIPTIC5, ELLIPTIC3, GENUS2, EVEN_SQ, EVEN_NONSQ])
@pytest.mark.parametrize("m", [1, 2])
def test_counts_match_brute_force(curve, m):
    assert count_points(curve, m) == brute_count(curve, m)


def test_counts_match_brute_force_cubic_extension():
    assert count_points(ELLIPTIC5, 3) == brute_count(ELLIPTIC5, 3)
    assert count_points(GENUS2, 3) == brute_count(GENUS2, 3)


def test_workers_agree():
    # F_25 and F_125 count on logs, in stripes of log indices; F_3 counts on values
    for curve, m in ((ELLIPTIC5, 2), (GENUS2, 1), (ELLIPTIC5, 3)):
        assert count_points(curve, m, workers=2) == count_points(curve, m, workers=1)


# the tabled fields of the count workloads and more: F_9 .. F_729
TABLED = [FiniteField(p, n) for p, n in ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (7, 3), (3, 6))]


@pytest.mark.parametrize("fld", TABLED, ids=str)
def test_zech_logarithms_add_one(fld):
    """Z[k] is the log of 1 + g^k, by the int-tuple add on coordinates; the field builds Z with its tables."""
    exp, zech, coords = fld._exp, fld._zech, fld.coords
    add, one = _value_ops(fld.p, fld.n, fld.modulus)[2], coords(fld.one_value)
    half = (fld.q - 1) // 2
    assert len(zech) == fld.q - 1 and zech[half] is None
    for k in range(fld.q - 1):
        if k != half:
            assert coords(exp[zech[k]]) == add(coords(exp[k]), one)


def random_values(fld, degree, rng):
    """Values of a random f of the given degree: nonzero leading coefficient, the rest uniform."""
    return [fld.from_code(rng.randrange(fld.q)) for _ in range(degree)] + [fld.from_code(rng.randrange(1, fld.q))]


@pytest.mark.parametrize("fld", TABLED, ids=str)
def test_log_stripe_matches_the_value_stripe(fld):
    """The count on logs against the Horner/Euler count on values that it
    replaced, for seeded f of degree 3 to 6, with f(0) = 0 and with zero
    middle coefficients among them, whole and in stripes of log indices."""
    rng = random.Random(f"zech:{fld}")
    zero = fld.zero_value
    for degree in range(3, 7):
        for shape in ("random", "f(0) = 0", "sparse", "binomial"):
            vals = random_values(fld, degree, rng)
            if shape == "f(0) = 0":
                vals[0] = zero
            elif shape == "sparse":
                vals[1 : degree : 2] = [zero] * len(vals[1 : degree : 2])
            elif shape == "binomial":
                vals[1:degree] = [zero] * (degree - 1)
            expected = counting._count_stripe(fld, vals, 0, 1)
            assert counting._log_stripe(fld, vals, 0, 1) == expected
            assert sum(counting._log_stripe(fld, vals, start, 3) for start in range(3)) == expected


def test_counts_after_a_clear_run_on_new_tables(cold_fields):
    curve = Hyperelliptic(F9, Polynomial(F9, (1, 2, 0, 0, 0, 1)))
    before = count_points(curve, 2)
    old = FiniteField(3, 4)
    old_zech, old_embeddings = old._zech, old._embeddings
    assert old_zech is not None and old_embeddings
    field_module._canonical_modulus.cache_clear()
    assert count_points(curve, 2) == before == brute_count(curve, 2)
    new = FiniteField(3, 4)
    assert new is not old
    assert new._zech is not old_zech and new._zech == old_zech
    assert new._embeddings is not old_embeddings and new._embeddings == old_embeddings


def test_count_points_builds_its_field_once(monkeypatch):
    """Without workers the count runs on the field count_points built, with no second modulus check."""
    built = []

    def counted(*args):
        built.append(args)
        return FiniteField(*args)

    monkeypatch.setattr(counting, "FiniteField", counted)
    curve = Hyperelliptic(F9, Polynomial(F9, (1, 2, 0, 0, 0, 1)))
    assert count_points(curve, 2) == brute_count(curve, 2)
    assert built == [(3, 4)]


def test_point_counts_mapping():
    counts = point_counts(ELLIPTIC5, 2)
    assert counts == {1: 4, 2: 32}


def test_zeta_genus_zero():
    z = zeta_fit(LINE3)
    assert z.coeffs == (1,)
    assert [z.predict_N(m) for m in (1, 2, 5)] == [4, 10, 244]


def test_zeta_elliptic_worked_example():
    z = zeta_fit(ELLIPTIC5)
    assert z.coeffs == (1, -2, 5)
    assert z.predict_N(2) == 32
    assert z.predict_N(2) == brute_count(ELLIPTIC5, 2)
    assert z.predict_N(3) == brute_count(ELLIPTIC5, 3)
    assert z == ZetaData(5, 1, (1, -2, 5))


@pytest.mark.parametrize("curve", [ELLIPTIC3, GENUS2, EVEN_SQ])
def test_zeta_predictions_match_counts(curve):
    z = zeta_fit(curve)
    g = curve.genus
    for m in range(1, 2 * g + 3):
        predicted = z.predict_N(m)
        assert predicted == count_points(curve, m)
        assert hasse_weil_check(curve.q, g, m, predicted)


def test_zeta_error_cases():
    with pytest.raises(PreconditionError):
        zeta_fit(GENUS2, counts={1: 7})
    with pytest.raises(PreconditionError):
        zeta_fit(GENUS2, counts={1: 4, 2: 9})  # odd power sum cannot fit
    with pytest.raises(PreconditionError):
        ZetaData(5, 1, (1, -2))


def test_sym_product_worked_examples():
    assert sym_product_count({1: 4, 2: 10}, 2) == 13
    assert sym_product_count({1: 7}, 1) == 7
    assert sym_product_count({1: 4, 2: 32}, 2) == 24
    with pytest.raises(PreconditionError):
        sym_product_count({1: 4}, 2)
    with pytest.raises(InternalInconsistencyError):
        sym_product_count({1: 1, 2: 2}, 2)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sym_by_compositions(counts, r):
    """Oracle: the exponential formula summed over the integer compositions
    of r, as sym_product_count computed it before the recurrence."""
    total = Fraction(0)
    for i in range(1, r + 1):
        block = Fraction(0)
        for comp in _compositions(r, i):
            term = Fraction(1)
            for a in comp:
                term *= Fraction(counts[a], a)
            block += term
        total += block / factorial(i)
    return total


def test_sym_recurrence_matches_the_composition_sum():
    """Seeded count sets, random ones and those of real curves: the same
    value, or the same InternalInconsistencyError, as the oracle."""
    rng = random.Random(0)
    curves = [point_counts(curve, 7) for curve in (LINE5, ELLIPTIC3, GENUS2, EVEN_SQ)]
    integral = inconsistent = 0
    for _ in range(300):
        r = rng.randint(1, 7)
        counts = rng.choice(curves) if rng.random() < 0.3 else {m: rng.randint(0, 60) for m in range(1, r + 1)}
        want = sym_by_compositions(counts, r)
        if want.denominator == 1:
            integral += 1
            assert sym_product_count(counts, r) == want
        else:
            inconsistent += 1
            with pytest.raises(InternalInconsistencyError):
                sym_product_count(counts, r)
    assert integral > 50 and inconsistent > 50
    # the composition sum would walk 2^17 compositions here
    assert sym_product_count({m: 3**m + 1 for m in range(1, 19)}, 18) == projective_space_count(3, 18)


def test_sym_matches_projective_space_on_the_line():
    for q, line in ((3, LINE3), (5, LINE5), (9, ProjectiveLine(F9))):
        counts = point_counts(line, 5)
        for r in range(1, 6):
            assert sym_product_count(counts, r) == projective_space_count(q, r)


def test_closed_point_counts_on_line():
    b = closed_point_counts(LINE3, 3)
    # monic irreducibles over F_3: 3 quadratics, 8 cubics; degree 1 adds infinity
    assert b == {1: 4, 2: 3, 3: 8}


def census_closed_points_on_line(field, max_degree):
    """Oracle: q + 1 points of degree 1, then a census of the monic
    irreducibles of each degree d >= 2 by Rabin's test."""
    q = field.q
    out = {1: q + 1}
    for d in range(2, max_degree + 1):
        out[d] = 0
        for k in range(q**d):
            coeffs = [field.from_int_value(c) for c in digits(k, q, d)] + [field.one]
            out[d] += rabin_is_irreducible(Polynomial(field, coeffs))
    return out


@pytest.mark.parametrize("field, max_degree", [(F3, 5), (F5, 3), (F9, 2)], ids=str)
def test_closed_point_counts_on_line_match_the_census(field, max_degree):
    line = ProjectiveLine(field)
    assert closed_point_counts(line, max_degree) == census_closed_points_on_line(field, max_degree)


def test_effective_divisors_on_line():
    assert enumerate_effective_divisors(LINE3, 2) == 13
    assert enumerate_effective_divisors(LINE3, 3) == 40
    assert enumerate_effective_divisors(LINE5, 3) == projective_space_count(5, 3)


@pytest.mark.parametrize("curve", [LINE3, LINE5, ELLIPTIC5, ELLIPTIC3, GENUS2, EVEN_SQ])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sym_equals_divisor_enumeration(curve, r):
    counts = point_counts(curve, r)
    assert sym_product_count(counts, r) == enumerate_effective_divisors(curve, r)


def test_divisor_guard():
    with pytest.raises(GuardExceededError):
        enumerate_effective_divisors(LINE3, 14)
    with pytest.raises(GuardExceededError, match=r"5\^7000 \(more than 10\^\d+\) elements"):
        closed_point_counts(ELLIPTIC5, 7000)


@pytest.mark.parametrize("max_m", [11, 7000])
def test_point_counts_refuses_before_counting(monkeypatch, max_m):
    calls = []
    real = counting.count_points
    monkeypatch.setattr(counting, "count_points", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    with pytest.raises(GuardExceededError, match="guard="):
        point_counts(ELLIPTIC5, max_m)  # 5^11 is past POINT_GUARD
    assert calls == []
    assert point_counts(ELLIPTIC5, 3) == {m: real(ELLIPTIC5, m) for m in (1, 2, 3)}
    assert len(calls) == 3


def test_closed_point_counts_get_the_weil_check(monkeypatch):
    """Divisor counts read N_m through point_counts, so a count off the Weil bound is a bug, not a total."""
    monkeypatch.setattr(counting, "count_points", lambda curve, m, **kw: 7 ** m)
    with pytest.raises(InternalInconsistencyError, match="violates the Weil bound"):
        closed_point_counts(ELLIPTIC5, 2)
    with pytest.raises(InternalInconsistencyError, match="violates the Weil bound"):
        enumerate_effective_divisors(ELLIPTIC5, 2)


@pytest.mark.parametrize("curve", [LINE3, LINE5, ELLIPTIC5, ELLIPTIC3, GENUS2, EVEN_SQ, EVEN_NONSQ], ids=str)
def test_every_count_coefficient_and_bound_is_an_int(curve):
    """No float reaches a result: counts, zeta coefficients and bound values are ints, not bools."""
    counts = point_counts(curve, 3)
    zeta = zeta_fit(curve)
    values = [*counts.values(), *closed_point_counts(curve, 3).values(), count_points(curve, 2, workers=2)]
    values += [sym_product_count(counts, 3), enumerate_effective_divisors(curve, 3)]
    values += [*zeta.coeffs, *zeta.power_sums(4), *(zeta.predict_N(m) for m in (1, 2, 3, 4))]
    g = curve.genus
    parts = tame_bound_parts(g, 1, 1, curve.q)
    # at genus 2 the tame bound has some 45 million digits, past DIGIT_GUARD
    values += [tame_bound(min(g, 1), 1, 1, curve.q).value, wild_bound(g, 1, 1, curve.field.p).value, wild_N(g, 1)]
    values += [parts[key] for key in ("factor", "m", "L", "exponent", "log_q_size")]
    assert all(type(value) is int for value in values), values


def test_hasse_weil_examples():
    assert hasse_weil_check(5, 1, 1, 4)
    assert not hasse_weil_check(5, 1, 1, 12)
    assert hasse_weil_check(7, 0, 3, 7**3 + 1)
    with pytest.raises(PreconditionError):
        hasse_weil_check(1, 1, 1, 1)
    with pytest.raises(PreconditionError):
        hasse_weil_check(5, -1, 1, 4)


def test_sym_count_bounds_examples():
    assert sym_count_bounds_check(5, 3, 1, 6)
    assert sym_count_bounds_check(3, 3, 1, 4)
    assert sym_count_bounds_check(5, 3, 2, 24)
    # value exactly on the upper bound must fail the strict test
    assert not sym_count_bounds_check(49, 4, 1, 98)
    assert sym_count_bounds_check(49, 4, 1, 97)
    with pytest.raises(PreconditionError):
        sym_count_bounds_check(5, 2, 1, 6)


def test_projective_space_counts():
    assert projective_space_count(3, 2) == 13
    assert projective_space_count(7, 0) == 1
    assert projective_space_count(5, 1) == 6
    with pytest.raises(PreconditionError):
        projective_space_count(3, -1)


def test_pick_points_on_line():
    avoid = {P1Point(F5, F5.zero), P1Point(F5, F5.one), P1Point.infinity(F5)}
    got = pick_points(LINE5, avoid, 2)
    assert [str(p) for p in got] == ["2", "3"]
    assert pick_points(LINE5, avoid, 0) == ()
    with pytest.raises(PreconditionError):
        pick_points(LINE3, set(p1_points(F3)), 1)


def test_pick_points_subfield_flag():
    line9 = ProjectiveLine(F9)
    got = pick_points(line9, (), 4, subfield=True)
    assert [str(p) for p in got] == ["0,0", "1,0", "2,0", "inf"]
    with pytest.raises(PreconditionError):
        pick_points(line9, (), 5, subfield=True)


def test_curve_points_and_pick_on_hyperelliptic():
    pts = curve_points(ELLIPTIC5)
    assert len(pts) == count_points(ELLIPTIC5, 1)
    assert [str(p) for p in pts] == ["0,0", "2,0", "3,0", "inf"]
    picked = pick_points(ELLIPTIC5, {pts[0]}, 2)
    assert picked == (pts[1], pts[2])
    even = curve_points(EVEN_SQ)
    assert [str(p) for p in even] == ["0,1", "0,2", "inf+", "inf-"]
    assert len(curve_points(EVEN_NONSQ)) == count_points(EVEN_NONSQ, 1)
    assert len(curve_points(GENUS2)) == count_points(GENUS2, 1)


def test_curve_point_identity():
    a = CurvePoint(F5.element(2), F5.element(0))
    b = CurvePoint(F5.element(2), F5.element(0))
    assert a == b and hash(a) == hash(b)
    assert CurvePoint(label="inf") != a


def test_parse_curve_round_trips():
    for text in ("p1/5", "p1/3^2", "hyp/5/0,1,0,1", "hyp/3/1,2,0,0,0,1"):
        curve = parse_curve(text)
        assert str(curve) == text
        assert parse_curve(str(curve)) == curve
    assert parse_curve("p1/3^2/2,2,1").field.modulus == (2, 2, 1)
    with pytest.raises(PreconditionError):
        parse_curve("hyp/5/0,1")
    with pytest.raises(PreconditionError):
        parse_curve("weird/5")
