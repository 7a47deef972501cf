"""The search screen against the verifiers it stands in front of.

The screen must pass a candidate exactly when verify_tame_belyi or
verify_wild_belyi passes it; the search relies on that to keep its
witnesses and candidate counts.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbelyi.factor import squarefree_decomposition
from pbelyi.field import FiniteField
from pbelyi.poly import Polynomial
from pbelyi.ratmap import RationalMap, mobius_from_triple, p1_points, wronskian
from pbelyi.search import _passes, _rad_degree, _Screen, _tame_root_count, enumerate_candidates

from oracles import tame_root_count

F3 = FiniteField(3)
F5 = FiniteField(5)
FIELDS = (F3, F5, FiniteField(7), FiniteField(3, 2), FiniteField(5, 2))


@pytest.mark.parametrize(
    "field, d_max",
    # degree 3 over F_3 holds the first separable candidates with a fibre
    # point of multiplicity p, such as x^3/(x + 1)
    [(F3, 2), (F5, 1), (F3, 3), (F5, 2)],
    ids=["q3", "q5", "q3_d3", "q5_d2"],
)
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


@pytest.mark.parametrize("field, d_max", [(F3, 5), (F5, 4)], ids=["q3", "q5"])
def test_gcd_count_matches_the_radical_count(field, d_max):
    """deg g - deg gcd(g, g'), counted on value tuples by _tame_root_count
    and on Polynomials by the oracle, is the screen's fast stand-in for deg rad g: it
    counts the distinct roots whose multiplicity p does not divide, so it is
    at most deg rad g, with equality exactly when squarefree_decomposition
    reports no multiplicity divisible by p.  Checked on every monic g of
    degree <= d_max."""
    p = field.p
    values = [field.from_code(c) for c in range(field.q)]
    exact = 0
    for m in range(d_max + 1):
        for low in itertools.product(values, repeat=m):
            g = Polynomial._from_values(field, list(low) + [field.one_value])
            parts = squarefree_decomposition(g)
            fast, rad = _tame_root_count(field, g.values), _rad_degree(g)
            assert fast == tame_root_count(g) == sum(h.degree for h, e in parts if e % p), str(g)
            assert fast <= rad
            assert (fast == rad) == all(e % p for _, e in parts), str(g)
            exact += fast == rad
    # a multiplicity divisible by p needs degree >= p, as in x^p
    assert (exact < sum(field.q ** m for m in range(d_max + 1))) == (d_max >= p)


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


@settings(max_examples=150)
@given(f=separable_maps(), kind=st.sampled_from(["tame", "wild"]), data=st.data())
def test_screen_matches_the_verifier_on_random_maps(f, kind, data):
    pts = p1_points(f.field)
    chosen = data.draw(st.lists(st.sampled_from(pts), unique=True, max_size=4))
    cut = data.draw(st.integers(0, len(chosen)))
    marked, avoided = chosen[:cut], chosen[cut:]
    assert _Screen(f.field, kind, marked, avoided)(f) == _passes(f, kind, marked, avoided)
