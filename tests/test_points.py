"""One home for points of the line.

Every entry point reads a point the same way (a P1Point, an element, a text
or an element code) and refuses marked and avoided points that overlap with
one message naming the least shared point.  RationalMap.evaluate,
ramification._infinity_orbit and mobius_from_triple are checked against the
case-by-case code they replaced, kept here as oracles.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbelyi.constructions import (
    BelyiInstance,
    CoveringDescriptor,
    collapse_map,
    tame_normalize_small,
    tame_pipeline,
    tame_reduce_recursive,
)
from pbelyi.errors import PreconditionError
from pbelyi.field import FiniteField
from pbelyi.poly import Polynomial
from pbelyi.ramification import _branch, _infinity_orbit, verify_tame_belyi, verify_wild_belyi
from pbelyi.ratmap import P1Point, RationalMap, mobius_from_triple, p1_points
from pbelyi.search import _Screen

F3, F5, F7 = FiniteField(3), FiniteField(5), FiniteField(7)
F9, F25 = FiniteField(3, 2), FiniteField(5, 2)
INF = P1Point.infinity(F5)
QUARTIC = RationalMap.from_polynomial(Polynomial(F5, (0, 0, 0, 0, 1)))

FORMS = {
    "P1Point": lambda k: P1Point.of(F5.from_int_value(k)),
    "element": F5.from_int_value,
    "text": lambda k: str(F5.from_int_value(k)),
    "code": lambda k: k,
}


def _pipeline(marked, avoided):
    rec = tame_pipeline(CoveringDescriptor.identity(F5, marked, avoided), S=marked, T=avoided)
    return rec["composite"].to_dict()


# name: (call on the marked and avoided points, marked codes, avoided codes,
#        avoided codes that overlap the marked ones, the least shared code)
ENTRY_POINTS = {
    "BelyiInstance": (lambda m, a: BelyiInstance(F5, m, a).to_dict(), [3, 1], [2], [2, 3, 1], 1),
    "CoveringDescriptor": (lambda m, a: CoveringDescriptor(F5, 1, 0, (), m, a).to_dict(), [3, 1], [2], [3, 1], 1),
    "collapse_map": (lambda m, a: collapse_map(F5, m[-1], [*m, INF], a[0]).to_dict(), [0, 2], [3], [2], 2),
    "tame_normalize_small": (
        lambda m, a: tame_normalize_small(BelyiInstance(F5, m, ()), a[0]).to_dict(), [1, 3], [2], [3], 3,
    ),
    "tame_reduce_recursive": (
        lambda m, a: tame_reduce_recursive(BelyiInstance(F5, m, ()), a[0]).to_dict(), [0, 1, 3, 4], [2], [4], 4,
    ),
    "tame_pipeline": (_pipeline, [3, 1], [2], [2, 1], 1),
    "verify_tame_belyi": (lambda m, a: verify_tame_belyi(QUARTIC, m, a).to_dict(), [3, 1], [2], [2, 3, 1], 1),
    "verify_wild_belyi": (lambda m, a: verify_wild_belyi(QUARTIC, m, a).to_dict(), [3, 1], [2], [2, 3, 1], 1),
    "search._Screen": (lambda m, a: _Screen(F5, "tame", m, a).points, [3, 1], [2], [2, 3, 1], 1),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_reads_every_point_form(name, form):
    call, marked, avoided, _, _ = ENTRY_POINTS[name]
    read, as_text = FORMS[form], FORMS["text"]
    got = call([read(k) for k in marked], [read(k) for k in avoided])
    assert got == call([as_text(k) for k in marked], [as_text(k) for k in avoided])


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_refuses_an_overlap_with_one_message(name, form):
    call, marked, _, overlap, least = ENTRY_POINTS[name]
    read = FORMS[form]
    with pytest.raises(PreconditionError) as err:
        call([read(k) for k in marked], [read(k) for k in overlap])
    assert str(err.value) == "point %d is both marked and avoided" % least


def test_verifiers_keep_the_callers_order():
    f = RationalMap.from_polynomial(Polynomial(F5, (0, 0, 1)))  # x^2 sends 3 and 2 to 4
    assert verify_tame_belyi(f, ["3", 2, "3"]).violations == (
        "marked point 3 maps to 4, outside {0, 1, inf}",
        "marked point 2 maps to 4, outside {0, 1, inf}",
    )
    assert verify_wild_belyi(f, [3, "2"]).violations[:2] == (
        "marked point 3 maps to 4, not to inf",
        "marked point 2 maps to 4, not to inf",
    )


# -- the case-by-case code that the one evaluation and the one cross-ratio replaced


def evaluate_by_cases(f, point):
    """f(point) with infinity read off the degrees and affine points by element division."""
    fld = f.field
    if point.is_infinity:
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            return P1Point.infinity(fld)
        if dn < dd:
            return P1Point(fld, fld.zero)
        return P1Point(fld, f.num.leading / f.den.leading)
    top = f.num(point.value)
    bottom = f.den(point.value)
    if bottom.is_zero:
        return P1Point.infinity(fld)
    return P1Point(fld, top / bottom)


def infinity_orbit_by_cases(f):
    """(index, branch key) at infinity from the degrees of num and den, or None when unramified."""
    base = f.field
    num, den = f.num, f.den
    if num.degree > den.degree:
        index, beta = num.degree - den.degree, None
    else:
        beta = num.leading / den.leading if num.degree == den.degree else base.zero
        index = den.degree - (num - den * beta).degree
    if index < 2:
        return None
    bmp = None if beta is None else Polynomial(base, (-beta, base.one))
    return index, _branch(bmp, base).key()


def mobius_by_cases(a, b, c):
    """The map a -> 0, b -> 1, c -> inf, one formula for each place of infinity."""
    fld = a.field
    x = Polynomial.x(fld)

    def lin(p):
        return x - Polynomial.constant(fld, p.value)

    if a.is_infinity:
        num, den = Polynomial.constant(fld, b.value - c.value), lin(c)
    elif b.is_infinity:
        num, den = lin(a), lin(c)
    elif c.is_infinity:
        num, den = lin(a), Polynomial.constant(fld, b.value - a.value)
    else:
        num = lin(a) * Polynomial.constant(fld, b.value - c.value)
        den = lin(c) * Polynomial.constant(fld, b.value - a.value)
    return RationalMap(num, den)


@st.composite
def maps(draw):
    fld = draw(st.sampled_from((F3, F5, F9, F25)))
    codes = st.lists(st.integers(0, fld.q - 1), min_size=1, max_size=5)
    num = Polynomial(fld, [fld.from_int_value(c) for c in draw(codes)])
    den = Polynomial(fld, [fld.from_int_value(c) for c in draw(codes)])
    assume(not den.is_zero)
    return RationalMap(num, den)


@settings(max_examples=200)
@given(maps())
def test_evaluate_and_the_orbit_at_infinity_match_the_case_by_case_oracles(f):
    for point in p1_points(f.field):
        assert f(point) == evaluate_by_cases(f, point)
    if not f.is_constant:
        orbit = _infinity_orbit(f)
        got = None if orbit is None else (orbit.index, orbit.branch.key())
        assert got == infinity_orbit_by_cases(f)


@pytest.mark.parametrize("field", [F3, F5, F7, F9], ids=str)
def test_mobius_matches_the_four_branch_oracle_on_every_ordered_triple(field):
    for a, b, c in itertools.permutations(p1_points(field), 3):
        assert mobius_from_triple(a, b, c) == mobius_by_cases(a, b, c)
