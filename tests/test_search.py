import functools
import itertools
import multiprocessing
import os
import pickle
import random
import re
import signal
import subprocess
import sys

import pytest

from pbelyi.bounds import wild_bound
from pbelyi.constructions import BelyiInstance
from pbelyi.errors import GuardExceededError, InternalInconsistencyError, PreconditionError
from pbelyi.field import FiniteField, embed
from pbelyi.ramification import verify_tame_belyi, verify_wild_belyi
from pbelyi.poly import Polynomial
from pbelyi.ratmap import P1Point, RationalMap, p1_points, parse_ratmap
from pbelyi import search
from pbelyi.ramification import BelyiVerdict
from pbelyi.search import SearchSpec, enumerate_candidates, minimal_belyi_degree

from oracles import tame_root_count

F3 = FiniteField(3, 1)
F5 = FiniteField(5, 1)
F7 = FiniteField(7, 1)
F9 = FiniteField(3, 2)


def test_enumeration_counts_match_pgl2():
    # degree-1 maps are exactly PGL2, of order q^3 - q
    assert len(list(enumerate_candidates(F3, 1))) == 24
    assert len(list(enumerate_candidates(F5, 1))) == 120


def test_enumeration_is_duplicate_free_and_reduced():
    seen = list(enumerate_candidates(F3, 2))
    assert len(seen) == len(set(seen))
    for f in seen:
        assert f.degree == 2
        assert f.den.is_monic
        assert f.num.gcd(f.den).degree == 0


def test_enumeration_order_is_frozen():
    prefix = [str(f) for f in list(enumerate_candidates(F3, 1))[:7]]
    assert prefix == [
        "poly=0,1",
        "poly=1,1",
        "poly=2,1",
        "poly=0,2",
        "poly=1,2",
        "poly=2,2",
        "num=1/den=0,1",
    ]


def test_first_quartic_candidate_is_x4():
    first = next(iter(enumerate_candidates(F5, 4)))
    assert str(first) == "poly=0,0,0,0,1"


def test_stream_blocks_concatenate_to_the_stream():
    # contiguous ranges of rows concatenate to the stream, one row per monic denominator
    whole = list(enumerate_candidates(F3, 2))
    total = search._row_count(3, 2)
    assert total == 1 + 3 + 9
    for cuts in ([0, total], [0, 1, 2, total], [0, 3, 4, 9, 12, total], [0, 1, total - 1, total]):
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            for _, e, _, den in search._rows(F3, range(lo, hi)):
                pieces.extend(search._row_stream(F3, 2, e, den))
        assert pieces == whole


def _row_index(field, den):
    """The index of den's row at any degree d >= deg den."""
    q = field.q
    return search._row_count(q, den.degree - 1) + search._code(field, den.values) - q ** den.degree


@pytest.mark.parametrize("field, d_max", [(F3, 3), (F5, 2), (F7, 2), (F9, 2)], ids=["q3", "q5", "q7", "q9"])
def test_row_counts_match_a_gcd_count(field, d_max):
    """Phi(D) from the factoring counts each row as its gcds do, and the band
    and degree closed forms are the sums of those rows."""
    q = field.q
    for d in range(1, d_max + 1):
        bands = [0] * (d + 1)
        for _, e, _, den in search._rows(field, range(search._row_count(q, d))):
            numerators = (search._poly_from_code(field, c, d + 1) for c in search._row_codes(q, d, e))
            by_gcd = sum(1 for num in numerators if num.gcd(den).degree == 0)
            closed = search._row_total(q, d, e, search._totient(den))
            assert closed == by_gcd, (str(den), d)
            bands[e] += closed
        assert bands == [search._band_total(q, d, e) for e in range(d + 1)]
        # one candidate per map of degree d, and there are q^(2d-1) (q^2 - 1) of them
        assert sum(bands) == q ** (2 * d - 1) * (q * q - 1)


@pytest.mark.parametrize("field, d_max, every", [(F3, 3, True), (F5, 2, True), (F9, 2, False)], ids=["q3", "q5", "q9"])
def test_places_match_the_row_stream(field, d_max, every):
    """_place, counted by blocks of q^e codes, is the 1-based index of the
    numerator in _row_stream: every numerator of every row over F_3 and F_5,
    and over F_9 the first and last numerator of each block of every row,
    which include the row's first and last.  Rows with e = 0, 0 < e < d and
    e = d all occur."""
    q, kinds = field.q, set()
    for d in range(1, d_max + 1):
        for _, e, _, den in search._rows(field, range(search._row_count(q, d))):
            kinds.add(0 if e == 0 else 2 if e == d else 1)
            stream = list(search._row_stream(field, d, e, den))
            places = {search._code(field, f.num.values): i for i, f in enumerate(stream, 1)}
            if not every:
                ends = set()
                for _, block in itertools.groupby(sorted(places), key=lambda code: code // q ** e):
                    block = list(block)
                    ends.update((block[0], block[-1]))
                places = {code: places[code] for code in ends}
            assert {code: search._place(field, d, e, den, code) for code in places} == places, (str(den), d)
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("field, d_max", [(F3, 3), (F5, 2), (F9, 2)], ids=["q3", "q5", "q9"])
def test_value_tuple_paths_match_the_polynomial_paths(field, d_max):
    """The scan's fast paths on value tuples: _coprime(N, D) holds exactly
    when RationalMap(N, D) keeps degree d, and _tame_root_count equals
    deg g - deg gcd(g, g') on Polynomials for g = N and N - D, for every
    numerator N of every row."""
    q, polys = field.q, {}
    for d in range(1, d_max + 1):
        for _, e, _, den in search._rows(field, range(search._row_count(q, d))):
            for code in search._row_codes(q, d, e):
                num = search._poly_from_code(field, code, d + 1)
                assert search._coprime(field, num.values, den.values) == (RationalMap(num, den).degree == d)
                polys.update((g.values, g) for g in (num, num - den))
    for values, g in polys.items():
        assert search._tame_root_count(field, values) == tame_root_count(g), str(g)


def test_a_place_outside_its_row_or_not_prime_to_d_is_an_internal_error():
    """The scan's hit must be a candidate of its row; _place raises, not asserts, when it is not."""
    x2, x = search._poly_from_code(F5, 25, 3), search._poly_from_code(F5, 5, 2)
    assert search._place(F5, 2, 2, x2, 1) == 1 and search._place(F5, 2, 1, x, 26) == 1
    for d, e, den, code in [(2, 2, x2, 0), (2, 2, x2, 125), (2, 1, x, 24), (2, 1, x, 125)]:
        with pytest.raises(InternalInconsistencyError, match="outside the row"):
            search._place(F5, d, e, den, code)
    for d, e, den, code in [(2, 2, x2, 5), (2, 1, x, 25), (2, 1, x, 120)]:  # x, x^2 and 4x^2 + 4x share x
        with pytest.raises(InternalInconsistencyError, match="not prime to"):
            search._place(F5, d, e, den, code)


def _splits(field, sample=None, seed=0):
    """Splits of P^1(field) into marked and avoided points, every one or a seeded sample."""
    pts = p1_points(field)
    if sample is None:
        labels = itertools.product((0, 1, 2), repeat=len(pts))
    else:
        rng = random.Random(seed)
        labels = [[rng.choice((0, 0, 0, 1, 1, 2)) for _ in pts] for _ in range(sample)]
    for row in labels:
        yield [pt for pt, k in zip(pts, row) if k == 1], [pt for pt, k in zip(pts, row) if k == 2]


F9_CUSTOM = FiniteField(3, 2, (2, 2, 1))
# (field, d_max, splits): every split over F_3, seeded samples over F_5 and F_9
GRIDS = [
    (F3, 2, list(_splits(F3))),
    (F5, 2, list(_splits(F5, sample=24))),
    (F9_CUSTOM, 1, list(_splits(F9_CUSTOM, sample=24))),
]
GRID_IDS = ["q3", "q5", "q9_custom"]


@pytest.mark.parametrize("field, d_max, splits", GRIDS, ids=GRID_IDS)
def test_row_scan_matches_the_stream_scan(field, d_max, splits):
    """The parent's path, one block through map, finds the first hit of the
    stream and counts it at its place there, also when rows of the hit's band
    come before it and are counted by Phi."""
    streams = {d: list(enumerate_candidates(field, d)) for d in range(1, d_max + 1)}
    inf = P1Point.infinity(field)
    hits_inside_a_row = hits_after_a_band_prefix = 0
    for marked, avoided in splits:
        for kind in ("tame", "wild"):
            screen = search._Screen(field, kind, marked, avoided)
            rows = search._RowSearch(field, screen)
            for d, stream in streams.items():
                want = search._scan(stream, screen)
                assert search._scan_blocks(map, rows, d, 1) == want, (kind, marked, avoided, d)
                if want[0] is not None and 1 < want[1] < len(stream):
                    before, after = stream[want[1] - 2], stream[want[1]]
                    hits_inside_a_row += before.den == want[0].den == after.den
                if want[0] is not None:
                    den = want[0].den
                    hits_after_a_band_prefix += search._code(field, den.values) > field.q ** den.degree
    assert hits_inside_a_row > 0 and hits_after_a_band_prefix > 0
    assert any(inf in marked for marked, _ in splits) and any(inf in avoided for _, avoided in splits)


@pytest.mark.parametrize("field, d_max, splits", GRIDS, ids=GRID_IDS)
def test_row_filter_builds_exactly_the_numerators_that_meet_the_points(field, d_max, splits):
    """The row filter builds a row's numerators N that meet the points, have
    N(r) != 0 at every root r of D in the field and a code no greater than
    that of D - N, and, in band d of a tame search, N_d not in {0, 1}: the
    others fail the points, share x - r with D, or have 1 - f, 1/f or
    f/(f - 1) earlier in the stream.  Each comes with its code and D - N."""
    q = field.q
    for marked, avoided in splits:
        for kind in ("tame", "wild"):
            screen = search._Screen(field, kind, marked, avoided)
            rows = search._RowSearch(field, screen)
            for d in range(1, d_max + 1):
                for _, e, _, den in search._rows(field, range(search._row_count(q, d))):
                    roots = [r for r in field.elements() if den.evaluate(r).is_zero]
                    allowed = rows.allowed_values(d, e, den, rows.at_infinity(d, e))
                    built = [] if allowed is None else rows.numerators(d, den, allowed)
                    meet = []
                    for code in search._row_codes(q, d, e):
                        num = search._poly_from_code(field, code, d + 1)
                        if (
                            screen.meets_points(num.values, den.values, d)
                            and not any(num.evaluate(r).is_zero for r in roots)
                            and code <= search._code(field, (den - num).values)
                            and not (kind == "tame" and e == d and num.coeff(d) in (field.zero, field.one))
                        ):
                            meet.append((code, num.values, (den - num).values))
                    assert built == meet, (kind, marked, avoided, str(den))


def _moebius_twins(f, kind):
    """mu o f for the Moebius maps mu that permute {0, 1, inf}: all six, y, 1 - y,
    1/y, 1/(1 - y), y/(y - 1) and (y - 1)/y, for a tame search, and the two
    that also fix inf, y and 1 - y, for a wild one."""
    n, m = f.num, f.den
    pairs = ((n, m), (m - n, m), (m, n), (m, m - n), (n, n - m), (n - m, n))
    return [RationalMap(a, b) for a, b in pairs[: 6 if kind == "tame" else 2]]


@pytest.mark.parametrize("field, d_max, splits", [(F3, 3, None), (F5, 2, 16)], ids=["q3", "q5"])
def test_every_skipped_candidate_has_an_earlier_symmetric_twin(field, d_max, splits):
    """A scan enters the bands whose set at inf is not empty and, in a row
    that leads its orbit, screens the numerators that numerators() builds.
    With every row a leader, each candidate that meets the points but is not
    screened has some mu o f, mu permuting {0, 1, inf}, strictly earlier in
    the stream, and every such mu o f passes the screen exactly when f does;
    a wild search uses only the mu that fix inf.  Both kinds of twin occur:
    1 - f in the same row, and 1/f or f/(f - 1) in a lower band."""
    q = field.q
    streams = {d: list(enumerate_candidates(field, d)) for d in range(1, d_max + 1)}
    earlier = {}  # (kind, d, place of f) -> the twins of f that come before it, with their places
    for d, stream in streams.items():
        places = {f: i for i, f in enumerate(stream)}
        for i, f in enumerate(stream):
            for kind in ("tame", "wild"):
                earlier[kind, d, i] = [(places[g], g) for g in _moebius_twins(f, kind) if places[g] < i]
    ramified = {}
    twins_seen = set()
    for marked, avoided in _splits(field, sample=splits):
        for kind in ("tame", "wild"):
            screen = search._Screen(field, kind, marked, avoided)
            rows = _trivial_round(field, screen)

            def passes(d, i, f):
                if (kind, d, i) not in ramified:
                    ramified[kind, d, i] = screen.ramified(f)
                return screen.meets_points(f.num.values, f.den.values, d) and ramified[kind, d, i]

            for d, stream in streams.items():
                screened = set()
                for e in range(d + 1):
                    at_infinity = rows.at_infinity(d, e)
                    band = range(search._row_count(q, e - 1), search._row_count(q, e))
                    for _, _, _, den in search._rows(field, band if at_infinity else ()):
                        allowed = rows.allowed_values(d, e, den, at_infinity)
                        if allowed is not None:
                            screened.update((num, den.values) for _, num, _ in rows.numerators(d, den, allowed))
                for i, f in enumerate(stream):
                    if (f.num.values, f.den.values) in screened or not screen.meets_points(f.num.values, f.den.values, d):
                        continue
                    twins = earlier[kind, d, i]
                    assert twins, (kind, marked, avoided, str(f))
                    verdict = passes(d, i, f)
                    assert all(passes(d, j, g) == verdict for j, g in twins), (kind, marked, avoided, str(f))
                    twins_seen.update((kind, "same row" if g.den == f.den else "lower band") for _, g in twins)
    assert twins_seen == {("tame", "same row"), ("tame", "lower band"), ("wild", "same row")}


@pytest.mark.parametrize("field", [F3, F5, F9], ids=["q3", "q5", "q9"])
def test_interpolation_data_match_their_polynomials(field):
    """The Lagrange basis at the nodes and every multiple M H of M = prod (x - s),
    in the code order of H, equal the polynomials from_roots and * build."""
    rows = search._RowSearch(field, None)
    elements = list(field.elements())
    for d in range(4):
        for k in range(min(d + 1, field.q) + 1):
            for nodes in itertools.islice(itertools.permutations(elements, k), 12):
                basis, multiples = rows._interpolation(tuple(s.value for s in nodes), d)
                for s, ell in zip(nodes, basis):
                    want = Polynomial.from_roots(field, [t for t in nodes if t != s])
                    assert Polynomial._from_values(field, ell) == want * want.evaluate(s).inverse()
                    assert len(ell) == k
                m = Polynomial.from_roots(field, nodes)
                assert len(multiples) == field.q ** (d + 1 - k)
                for h, vals in enumerate(multiples):
                    assert len(vals) == d + 1
                    assert Polynomial._from_values(field, vals) == m * search._poly_from_code(field, h, d + 1 - k)


def _affine_maps(field):
    """Every map x -> bx + a over the field, as ((b, a) values, the map)."""
    for b in field.elements():
        if not b.is_zero:
            for a in field.elements():
                yield (b.value, a.value), Polynomial(field, [a, b])


def _trivial_round(field, screen):
    """A row search whose group is forced to the identity alone, so every row leads its orbit."""
    rows = search._RowSearch(field, screen)
    rows._group = [(field.one_value, field.zero_value)]
    return rows


@pytest.mark.parametrize("field, d_max", [(F3, 3), (F5, 2)], ids=["q3", "q5"])
def test_orbit_scan_matches_a_scan_with_a_trivial_group(field, d_max):
    """Scanning one row per orbit finds the same witness at the same place as
    scanning every row, for every split of P^1 into marked and avoided points."""
    total = {d: search._row_count(field.q, d) for d in range(1, d_max + 1)}
    skipped = 0
    for marked, avoided in _splits(field):
        for kind in ("tame", "wild"):
            screen = search._Screen(field, kind, marked, avoided)
            rows, every = search._RowSearch(field, screen), _trivial_round(field, screen)
            for d in range(1, d_max + 1):
                want = every.scan(d, range(total[d]))
                assert rows.scan(d, range(total[d])) == want, (kind, marked, avoided, d)
                if want is not None:
                    break
            skipped += sum(flags.count(0) for flags in rows._leaders.values() if flags is not None)
            assert all(flags is None for flags in every._leaders.values())
    assert skipped > 0


@pytest.mark.parametrize("field, splits", [(F3, None), (F5, 40), (F9, 12)], ids=["q3", "q5", "q9"])
def test_the_group_is_the_affine_stabiliser_of_the_points(field, splits):
    """group() holds exactly the maps x -> bx + a that send the marked points
    onto themselves and the avoided points onto themselves, by brute force."""
    orders = set()
    for marked, avoided in [(p1_points(field), []), ([], [])] + list(_splits(field, sample=splits)):
        rows = search._RowSearch(field, search._Screen(field, "tame", marked, avoided))
        want = []
        for key, line in _affine_maps(field):
            sigma = RationalMap.from_polynomial(line)
            if all({sigma.evaluate(pt) for pt in pts} == set(pts) for pts in (marked, avoided)):
                want.append(key)
        assert sorted(rows.group()) == sorted(want), (marked, avoided)
        assert rows.group()[0] == (field.one_value, field.zero_value)
        orders.add(len(want))
    assert len(orders) > 2 and field.q * (field.q - 1) in orders


# (field, marked, avoided, order of the group, top degree)
ORBIT_CASES = [
    (F3, p1_points(F3), [], 6, 3),
    (F3, ["0", "2"], ["inf"], 2, 3),
    (F3, ["0"], ["1"], 1, 3),
    (F5, p1_points(F5), [], 20, 3),
    (F5, ["0", "1", "2", "3"], [], 4, 3),
    (F5, ["0", "1"], ["inf"], 2, 3),
    (F5, ["0", "1"], ["2"], 1, 3),
    (F9, p1_points(F9), [], 72, 2),
    (F9, ["0,0"], [], 8, 2),
]


@pytest.mark.parametrize("field, marked, avoided, order, top", ORBIT_CASES)
def test_orbit_leaders_meet_every_orbit_once(field, marked, avoided, order, top):
    """For every degree e the leaders are the least codes of the orbits of
    D -> D(bx + a)/b^e, one in each orbit, with the orbits found by compose."""
    inst = BelyiInstance(field, marked, avoided)
    rows = search._RowSearch(field, search._Screen(field, "tame", inst.S, inst.T))
    group = [Polynomial._from_values(field, [a, b]) for b, a in rows.group()]
    assert len(group) == order
    q = field.q
    for e in range(top + 1):
        orbits = set()
        for code in range(q ** e, 2 * q ** e):
            den = search._poly_from_code(field, code, e + 1)
            orbits.add(frozenset(search._code(field, den.compose(line).monic().values) for line in group))
        leaders = [code for code in range(q ** e, 2 * q ** e) if rows.leads(e, code)]
        assert sorted(min(orbit) for orbit in orbits) == leaders, e


def test_screen_hit_rejected_by_the_verifier_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(search, "verify_tame_belyi", lambda *a, **k: BelyiVerdict("tame", False, ["x"]))
    spec = SearchSpec(BelyiInstance(F5, [], []), "tame", 1, fields=[F5])
    with pytest.raises(InternalInconsistencyError, match="screen"):
        minimal_belyi_degree(spec)


def test_enumeration_rejects_bad_degree():
    for d in (0, True, 1.0):
        with pytest.raises(PreconditionError):
            list(enumerate_candidates(F3, d))


def test_search_trivial_instance_is_identity():
    spec = SearchSpec(BelyiInstance(F5, [], []), "tame", 2, fields=[F5])
    res = minimal_belyi_degree(spec)
    assert res["degree"] == 1
    assert str(res["witness"]) == "poly=0,1"
    assert res["exhausted"] is True
    assert res["candidates_tested"] == 1
    assert res["fields_searched"] == ["5"]


def test_search_trivial_instance_over_several_fields():
    for q in (3, 5, 7, 9):
        field = FiniteField(3, 2) if q == 9 else FiniteField(q, 1)
        spec = SearchSpec(BelyiInstance(field, [], []), "tame", 1, fields=[field])
        assert minimal_belyi_degree(spec)["degree"] == 1


def test_search_wild_avoided_zero():
    # the identity already avoids sending 0 to inf and has no branch points
    spec = SearchSpec(BelyiInstance(F3, [], ["0"]), "wild", 3, fields=[F3])
    res = minimal_belyi_degree(spec)
    assert res["degree"] == 1
    assert str(res["witness"]) == "poly=0,1"


def test_search_wild_marked_point_needs_a_pole():
    spec = SearchSpec(BelyiInstance(F3, ["1"], []), "wild", 1, fields=[F3])
    res = minimal_belyi_degree(spec)
    assert res["degree"] == 1
    assert str(res["witness"]) == "num=1/den=2,1"
    assert res["candidates_tested"] == 19
    assert res["degree"] < wild_bound(0, 1, 0, 3).value
    spec = SearchSpec(BelyiInstance(F5, ["1"], []), "wild", 2, fields=[F5])
    assert str(minimal_belyi_degree(spec)["witness"]) == "num=1/den=4,1"


def test_search_marked_triple_keeps_identity():
    spec = SearchSpec(BelyiInstance(F5, ["0", "1", "inf"], []), "tame", 2, fields=[F5])
    res = minimal_belyi_degree(spec)
    assert res["degree"] == 1
    assert str(res["witness"]) == "poly=0,1"


def test_search_exhausts_low_degrees():
    inst = BelyiInstance(F5, p1_points(F5), [])
    spec = SearchSpec(inst, "tame", 2, fields=[F5])
    res = minimal_belyi_degree(spec)
    assert res["degree"] is None
    assert res["witness"] is None
    assert res["exhausted"] is True
    assert res["candidates_tested"] == 3120


# (field, marked, avoided, kind, d_max, degree, witness, candidates_tested):
# a hit and an exhausted search of each kind, and a hit in the middle of a
# row of the last block for both 2 and 3 workers
WORKER_CASES = [
    (F5, ["0", "1", "2", "3"], [], "tame", 2, 2, "num=4,4,2/den=0,0,1", 680),
    (F5, "all", [], "tame", 2, None, None, 3120),
    (F5, ["1"], ["inf"], "wild", 1, 1, "num=1/den=4,1", 101),
    (F3, "all", [], "wild", 3, None, None, 2184),
    (F7, ["1", "2", "3"], [], "tame", 1, 1, "num=3,2/den=4,1", 225),
    (F5, "all", [], "tame", 4, 4, "poly=0,0,0,0,1", 78121),
]


def run_worker_cases(worker_counts):
    """Search every case of WORKER_CASES with each worker count and check the answer."""
    for field, marked, avoided, kind, d_max, degree, witness, tested in WORKER_CASES:
        inst = BelyiInstance(field, p1_points(field) if marked == "all" else marked, avoided)
        spec = SearchSpec(inst, kind, d_max, fields=[field])
        for workers in worker_counts:
            res = minimal_belyi_degree(spec, workers=workers)
            w = res["witness"]
            got = (res["degree"], None if w is None else str(w), res["candidates_tested"])
            assert got == (degree, witness, tested), (kind, marked, workers)
            if w is not None:  # a worker's witness comes back as a map over a copy of the field
                assert w.field == field and (w.field is field) == (workers == 1)
                verify = verify_tame_belyi if kind == "tame" else verify_wild_belyi
                assert verify(w, inst.S, inst.T).passed


def _recording_map(results):
    """A mapper like map that also keeps each (stride, result) it hands back."""

    def mapper(fn, strides):
        for stride in strides:
            results.append((stride, fn(stride)))
            yield results[-1][1]

    return mapper


def _round(field, marked, avoided=(), kind="tame"):
    inst = BelyiInstance(field, marked, avoided)
    return search._RowSearch(field, search._Screen(field, kind, inst.S, inst.T))


def test_search_workers_do_not_change_the_answer():
    run_worker_cases((1, 2, 3))
    # the hit of the F_7 case lies in row 5, which is in stride 1 of 2 and stride 2 of 3
    last = parse_ratmap(F7, "num=3,2/den=4,1")
    index = _row_index(F7, last.den)
    rows = _round(F7, ["1", "2", "3"])
    for workers in (2, 3):
        results = []
        assert search._scan_blocks(_recording_map(results), rows, 1, workers) == (last, 225)
        assert index % workers != 0
        assert dict(results)[range(index % workers, 8, workers)][:2] == (last, index)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_strides_partition_the_rows(workers):
    """A degree's rows go to workers strides range(w, total, workers), one per
    worker, and every row lies in exactly one; _rows reads a stride's rows as
    the whole range does.  With a nontrivial group most rows lead no orbit."""
    for marked, d in ((p1_points(F5), 4), (["0", "1", "2", "3"], 3), ([], 3)):
        rows = _round(F5, marked)
        total = search._row_count(5, d)
        results = []
        search._scan_blocks(_recording_map(results), rows, d, workers)
        strides = [stride for stride, _ in results]
        assert strides == [range(w, total, workers) for w in range(workers)]
        assert sorted(i for stride in strides for i in stride) == list(range(total))
        whole = [(i, e, code) for i, e, code, _ in search._rows(F5, range(total))]
        for stride in strides:
            assert [(i, e, code) for i, e, code, _ in search._rows(F5, stride)] == [whole[i] for i in stride]
        leaders = [i for i, e, code in whole if rows.leads(e, code)]
        assert len(leaders) < total, marked
    # leaders are least codes, yet two strides share those of P^1(F_5) at d = 4 evenly: 27 and 26 of 53
    rows, total = _round(F5, p1_points(F5)), search._row_count(5, 4)
    shares = [sum(rows.leads(e, code) for _, e, code, _ in search._rows(F5, range(w, total, 2))) for w in (0, 1)]
    assert shares == [27, 26]


def test_the_least_of_several_stride_hits_wins():
    """When several strides return a hit, the one with the least row index is
    the stream's first: same witness and count as the serial scan.  Over F_7 the
    hits lie in rows 5 and 6, so with 2 or 3 workers stride 0 returns row 6 and
    a later stride the first hit, row 5."""
    for field, marked, d in ((F7, ["1", "2", "3"], 1), (F5, ["0", "1", "2"], 2), (F3, ["0", "1"], 2)):
        rows = _round(field, marked)
        want = search._scan(enumerate_candidates(field, d), rows.screen)
        assert search._scan_blocks(map, rows, d, 1) == want
        for workers in (2, 3, 5):
            results = []
            assert search._scan_blocks(_recording_map(results), rows, d, workers) == want, (marked, workers)
            indices = [hit[1] for _, hit in results if hit is not None]
            assert len(indices) >= 2 and min(indices) == _row_index(field, want[0].den), (marked, workers)


def test_a_stride_ends_past_the_shared_index(monkeypatch):
    """In a worker a stride ends at its first row past the shared least hit
    index and reports None, and its own hit lowers the index to its row.  Every
    value a race can leave there is the row of some hit, and with any such
    value the stride that holds the first hit still returns it."""
    rows = _round(F5, ["0", "1", "2", "3"])
    total = search._row_count(5, 2)
    want = rows.scan(2, range(total))
    first = want[1]
    strides = [range(w, total, 4) for w in range(4)]
    stride = strides[first % 4]
    assert str(want[0]) == "num=4,4,2/den=0,0,1" and first % 4 != 0
    least = multiprocessing.RawValue("q", sys.maxsize)
    monkeypatch.setattr(search, "_least_hit", least)
    assert rows.scan(2, stride) == want and least.value == first
    least.value = first - 1
    assert rows.scan(2, stride) is None
    least.value = -1
    assert rows.scan(2, range(total)) is None
    # the rows whose scan reports a hit, each scanned alone with no shared index
    monkeypatch.setattr(search, "_least_hit", None)
    hit_rows = [i for i in range(total) if rows.scan(2, range(i, i + 1)) is not None]
    assert len(hit_rows) >= 2 and hit_rows[0] == first
    monkeypatch.setattr(search, "_least_hit", least)
    for raced in hit_rows:
        least.value = raced
        hits = [hit for hit in map(functools.partial(rows.scan, 2), strides) if hit is not None]
        assert min(hits, key=lambda hit: hit[1]) == want and least.value == first, raced
        assert all(first < hit[1] <= raced for hit in hits if hit != want)


def test_parallel_searches_do_not_hang():
    """The worker cases with 2 and 3 workers, 5 times over, in a child process
    under a timeout, so that a pool that hangs fails here instead of stalling
    the suite; the child and its workers are killed as one process group."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    script = "import test_search\nfor _ in range(5):\n    test_search.run_worker_cases((2, 3))\n"
    child = subprocess.Popen(
        [sys.executable, "-c", script], env=env, start_new_session=True, stderr=subprocess.PIPE, text=True
    )
    try:
        _, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("70 parallel searches did not finish in 120 s")
    assert child.returncode == 0, err


def test_search_workers_keep_a_custom_modulus():
    E = FiniteField(3, 2, (2, 2, 1))  # x^2 + 2x + 2, not the canonical x^2 + 1
    spec = SearchSpec(BelyiInstance(E, ["0,1", "1,1", "2,2"], []), "tame", 1, fields=[E])
    for workers in (1, 2):
        res = minimal_belyi_degree(spec, workers=workers)
        assert (str(res["witness"]), res["candidates_tested"]) == ("num=0,2;2,1/den=1,1;1,0", 406)


def test_a_pickled_round_scans_like_the_original():
    cases = [
        (F5, ["0", "1", "2", "3"], [], "tame", 2),
        (F3, p1_points(F3), [], "wild", 3),
        (F9_CUSTOM, ["0,1", "1,1", "2,2"], [], "tame", 1),
        (F5, p1_points(F5), [], "tame", 4),
    ]
    for field, marked, avoided, kind, d in cases:
        inst = BelyiInstance(field, marked, avoided)
        rows = search._RowSearch(field, search._Screen(field, kind, inst.S, inst.T))
        rows.scan(d - 1 or 1, range(search._row_count(field.q, d - 1 or 1)))  # fill the caches
        copy = pickle.loads(pickle.dumps(rows))
        assert copy.field == field and copy.screen.field is copy.field is not field
        assert copy._leaders == rows._leaders and copy._group == rows._group
        block = range(search._row_count(field.q, d))
        assert copy.scan(d, block) == rows.scan(d, block)
    # with inf marked no scan enters band d, so the d = 3 scan swept band 2 and never band 3
    assert len(rows.group()) == 20 and rows._leaders[2].count(1) < 5 ** 2 and 3 not in rows._leaders


def test_band_zero_leads_without_its_flags():
    """Band 0 holds one row, D = 1, which always leads: a search sweeps the
    orbits of the bands above it and never builds band 0's moves or flags."""
    inst = BelyiInstance(F5, p1_points(F5), [])
    rows = search._RowSearch(F5, search._Screen(F5, "tame", inst.S, inst.T))
    for d in (1, 2, 3):
        rows.scan(d, range(search._row_count(F5.q, d)))
    assert rows.leads(0, 1) and 0 not in rows._leaders and 1 in rows._leaders


def test_one_pool_serves_every_round(monkeypatch):
    built = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        built.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    # no degree-1 map sends four points into {0, 1, inf}, so the search runs
    # three rounds: degree 1 over F_3 and F_9, then degree 2 over F_3 (x^2)
    F9 = FiniteField(3, 2)
    spec = SearchSpec(BelyiInstance(F3, p1_points(F3), []), "tame", 2, fields=[F3, F9])
    serial = minimal_belyi_degree(spec)
    assert built == []
    parallel = minimal_belyi_degree(spec, workers=2)
    assert len(built) == 1
    assert multiprocessing.active_children() == []
    assert str(serial["witness"]) == "poly=0,0,1"
    for key in ("degree", "exhausted", "candidates_tested"):
        assert parallel[key] == serial[key]
    assert str(parallel["witness"]) == str(serial["witness"])
    randomized = SearchSpec(spec.instance, "tame", 1, fields=[F3], mode="randomized", budget=5)
    minimal_belyi_degree(randomized, workers=2)
    assert len(built) == 1


def test_randomized_mode_is_reproducible():
    spec = lambda: SearchSpec(
        BelyiInstance(F3, [], []), "wild", 1, fields=[F3], mode="randomized", seed=7, budget=30
    )
    first = minimal_belyi_degree(spec())
    second = minimal_belyi_degree(spec())
    assert first["degree"] == second["degree"] == 1
    assert str(first["witness"]) == str(second["witness"])
    assert first["exhausted"] is False


def test_randomized_mode_counts_budget():
    inst = BelyiInstance(F5, p1_points(F5), [])
    spec = SearchSpec(inst, "tame", 2, fields=[F5], mode="randomized", seed=3, budget=40)
    res = minimal_belyi_degree(spec)
    assert res["degree"] is None
    assert res["exhausted"] is False
    assert res["candidates_tested"] == 80


def test_exhaustive_guard_suggests_randomized():
    # the default field list includes F_{q^2}, which blows the budget at d_max 3
    spec = SearchSpec(BelyiInstance(F5, [], []), "tame", 3)
    with pytest.raises(GuardExceededError) as err:
        minimal_belyi_degree(spec)
    assert "randomized" in str(err.value)
    # q^(2 d_max + 1) = 5^8001 is refused from its bit length, never printed in full
    spec = SearchSpec(BelyiInstance(F5, list(p1_points(F5)), []), "tame", 4000, fields=[F5])
    with pytest.raises(GuardExceededError, match=r"5\^8001 \(more than 10\^\d+\) candidates") as err:
        minimal_belyi_degree(spec)
    assert "randomized" in str(err.value)


def test_witness_round_trips_through_text():
    spec = SearchSpec(BelyiInstance(F3, ["1"], []), "wild", 1, fields=[F3])
    res = minimal_belyi_degree(spec)
    again = parse_ratmap(F3, str(res["witness"]))
    assert again == res["witness"]
    assert verify_wild_belyi(again, spec.instance.S, spec.instance.T).passed


def test_search_over_an_extension_field():
    F9 = FiniteField(3, 2)
    spec = SearchSpec(BelyiInstance(F3, ["1"], []), "wild", 1, fields=[F9])
    res = minimal_belyi_degree(spec)
    assert res["degree"] == 1
    eps = embed(F3, F9)
    marked = [pt.embedded(eps) for pt in spec.instance.S]
    assert verify_wild_belyi(res["witness"], marked, ()).passed


def test_spec_validation():
    inst = BelyiInstance(F5, [], [])
    with pytest.raises(PreconditionError):
        SearchSpec(inst, "strange", 2)
    with pytest.raises(PreconditionError):
        SearchSpec(inst, "tame", 0)
    with pytest.raises(PreconditionError):
        SearchSpec(inst, "tame", 2, fields=[FiniteField(7, 1)])
    with pytest.raises(PreconditionError):
        SearchSpec(inst, "tame", 2, mode="guess")
    with pytest.raises(PreconditionError):
        SearchSpec(inst, "tame", 2, budget=0)
    with pytest.raises(PreconditionError):
        SearchSpec(inst, "tame", 2, fields=[])
    F25 = FiniteField(5, 2)
    for fields, repeated in (([F5, F5], "5"), ([F25, F5, F25], "5^2")):
        with pytest.raises(PreconditionError, match=re.escape(f"coefficient field {repeated} is listed twice")):
            SearchSpec(inst, "tame", 1, fields=fields)
    for bad in (0, True, False):  # isinstance(True, int) holds, yet a bool is no count
        with pytest.raises(PreconditionError):
            minimal_belyi_degree(SearchSpec(inst, "tame", 1, fields=[F5]), workers=bad)
        with pytest.raises(PreconditionError):
            SearchSpec(inst, "tame", bad)
        with pytest.raises(PreconditionError):
            SearchSpec(inst, "tame", 2, mode="randomized", budget=bad)
