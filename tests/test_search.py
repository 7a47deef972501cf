import pytest

from pbelyi.bounds import wild_bound
from pbelyi.constructions import BelyiInstance
from pbelyi.errors import GuardExceededError, InternalInconsistencyError, PreconditionError
from pbelyi.field import FiniteField, embed
from pbelyi.poly import Polynomial, parse_poly
from pbelyi.ramification import verify_tame_belyi, verify_wild_belyi
from pbelyi.ratmap import RationalMap, p1_points, parse_ratmap
from pbelyi import search
from pbelyi.ramification import BelyiVerdict
from pbelyi.search import SearchSpec, enumerate_candidates, minimal_belyi_degree

F3 = FiniteField(3, 1)
F5 = FiniteField(5, 1)


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
    whole = list(enumerate_candidates(F3, 2))
    total = search._raw_count(3, 2)
    for cuts in ([0, total], [0, 1, 2, total], [0, 17, 18, 100, 241, total], [0, 9, total - 1, total]):
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.extend(search._candidates(F3, 2, False, lo, hi))
        assert pieces == whole


def test_screen_hit_rejected_by_the_verifier_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(search, "verify_tame_belyi", lambda *a, **k: BelyiVerdict("tame", False, ["x"]))
    spec = SearchSpec(BelyiInstance(F5, [], []), "tame", 1, fields=[F5])
    with pytest.raises(InternalInconsistencyError, match="screen"):
        minimal_belyi_degree(spec)


def test_enumeration_rejects_bad_degree():
    with pytest.raises(PreconditionError):
        list(enumerate_candidates(F3, 0))


def _triple_group(field):
    x = Polynomial.x(field)
    one = Polynomial.one(field)
    return (
        RationalMap(x, one),
        RationalMap(one - x, one),
        RationalMap(one, x),
        RationalMap(one, one - x),
        RationalMap(x - one, x),
        RationalMap(x, x - one),
    )


def test_normalized_stream_is_an_orbit_transversal():
    full = list(enumerate_candidates(F3, 1))
    reps = set(enumerate_candidates(F3, 1, normalize=True))
    assert len(reps) == 4
    assert reps <= set(full)
    group = _triple_group(F3)
    for f in full:
        orbit = {sigma.compose(f) for sigma in group}
        assert len(orbit & reps) == 1


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


def test_search_workers_do_not_change_the_answer():
    # (field, marked, avoided, kind, d_max, degree, witness, candidates_tested):
    # a hit and an exhausted search of each kind
    cases = [
        (F5, ["0", "1", "2", "3"], [], "tame", 2, 2, "num=4,4,2/den=0,0,1", 680),
        (F5, "all", [], "tame", 2, None, None, 3120),
        (F5, ["1"], ["inf"], "wild", 1, 1, "num=1/den=4,1", 101),
        (F3, "all", [], "wild", 3, None, None, 2184),
    ]
    for field, marked, avoided, kind, d_max, degree, witness, tested in cases:
        inst = BelyiInstance(field, p1_points(field) if marked == "all" else marked, avoided)
        spec = SearchSpec(inst, kind, d_max, fields=[field])
        for workers in (1, 2, 3):
            res = minimal_belyi_degree(spec, workers=workers)
            witness_text = None if res["witness"] is None else str(res["witness"])
            got = (res["degree"], witness_text, res["candidates_tested"])
            assert got == (degree, witness, tested), (kind, marked, workers)


def test_search_workers_keep_a_custom_modulus():
    E = FiniteField(3, 2, (2, 2, 1))  # x^2 + 2x + 2, not the canonical x^2 + 1
    spec = SearchSpec(BelyiInstance(E, ["0,1", "1,1", "2,2"], []), "tame", 1, fields=[E])
    for workers in (1, 2):
        res = minimal_belyi_degree(spec, workers=workers)
        assert (str(res["witness"]), res["candidates_tested"]) == ("num=0,2;2,1/den=1,1;1,0", 406)


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
    # the default field list includes F_{q^2}, which blows the budget at d_max 2
    spec = SearchSpec(BelyiInstance(F5, [], []), "tame", 2)
    with pytest.raises(GuardExceededError) as err:
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
    with pytest.raises(PreconditionError):
        minimal_belyi_degree(SearchSpec(inst, "tame", 1, fields=[F5]), workers=0)


def test_normalization_does_not_change_the_minimum():
    inst = BelyiInstance(F5, ["0", "1", "inf"], [])
    plain = minimal_belyi_degree(SearchSpec(inst, "tame", 2, fields=[F5]))
    reduced = minimal_belyi_degree(SearchSpec(inst, "tame", 2, fields=[F5], normalize=True))
    assert plain["degree"] == reduced["degree"] == 1
    assert reduced["candidates_tested"] <= plain["candidates_tested"]
