"""The search screen against the verifiers it stands in front of.

The screen must pass a candidate exactly when verify_tame_belyi or
verify_wild_belyi passes it; the search relies on that to keep its
witnesses and candidate counts.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbelyi.field import FiniteField
from pbelyi.poly import Polynomial
from pbelyi.ratmap import RationalMap, mobius_from_triple, p1_points, wronskian
from pbelyi.search import _passes, _Screen, enumerate_candidates

F3 = FiniteField(3)
F5 = FiniteField(5)
FIELDS = (F3, F5, FiniteField(7), FiniteField(3, 2), FiniteField(5, 2))


@pytest.mark.parametrize("field, d_max", [(F3, 2), (F5, 1)], ids=["q3", "q5"])
@pytest.mark.parametrize("kind", ["tame", "wild"])
@pytest.mark.parametrize("marked", ["none", "all"])
def test_screen_matches_the_verifier_on_whole_streams(field, d_max, kind, marked):
    S = p1_points(field) if marked == "all" else ()
    screen = _Screen(field, kind, S, ())
    hits = 0
    for d in range(1, d_max + 1):
        for f in enumerate_candidates(field, d):
            verdict = _passes(f, kind, S, ())
            assert screen(f) == verdict, str(f)
            hits += verdict
    # with no marked points the Moebius maps are Belyi maps of both kinds
    assert hits > 0 or marked == "all"


def _poly(field, codes):
    return Polynomial(field, [field.from_int_value(c) for c in codes])


@st.composite
def separable_maps(draw):
    """A separable map of degree 1..4: random, or a power map between Moebius maps."""
    field = draw(st.sampled_from(FIELDS))
    code = st.integers(0, field.q - 1)
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        num = _poly(field, draw(st.lists(code, min_size=d + 1, max_size=d + 1)))
        den = _poly(field, draw(st.lists(code, min_size=1, max_size=d + 1)))
        assume(not den.is_zero)
        f = RationalMap(num, den)
    else:
        pts = p1_points(field)
        triple = st.lists(st.sampled_from(pts), min_size=3, max_size=3, unique=True)
        outer = mobius_from_triple(*draw(triple))
        inner = mobius_from_triple(*draw(triple))
        k = draw(st.integers(1, 4))
        power = RationalMap.from_polynomial(Polynomial.x(field) ** k)
        f = outer.compose(power.compose(inner))
    assume(not f.is_constant and not wronskian(f).is_zero)
    return f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=separable_maps(), kind=st.sampled_from(["tame", "wild"]), data=st.data())
def test_screen_matches_the_verifier_on_random_maps(f, kind, data):
    pts = p1_points(f.field)
    chosen = data.draw(st.lists(st.sampled_from(pts), unique=True, max_size=4))
    cut = data.draw(st.integers(0, len(chosen)))
    marked, avoided = chosen[:cut], chosen[cut:]
    assert _Screen(f.field, kind, marked, avoided)(f) == _passes(f, kind, marked, avoided)
