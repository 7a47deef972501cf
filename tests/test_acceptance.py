"""End-to-end acceptance checks: nine criteria, one test and one verdict line each,
and three larger searches for criterion 7.

Every expected number below was fixed by hand or by an independent oracle
before the implementation ran; the tests also enforce the stated runtime
budgets, so a regression in speed fails just like a regression in values.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from pbelyi.bounds import (
    lcm_up_to,
    point_supply_check,
    tame_bound,
    tame_threshold,
    wild_N,
    wild_bound,
)
from pbelyi.constructions import (
    BelyiInstance,
    CoveringDescriptor,
    tame_pipeline,
    tame_power_map,
    wild_belyi_compose,
    wild_h_tower,
)
from pbelyi.counting import (
    Hyperelliptic,
    ProjectiveLine,
    count_points,
    enumerate_effective_divisors,
    hasse_weil_check,
    point_counts,
    sym_product_count,
    zeta_fit,
)
from pbelyi.field import FiniteField, embed
from pbelyi.poly import Polynomial
from pbelyi.ramification import verify_tame_belyi
from pbelyi.ratmap import P1Point, RationalMap, p1_points
from pbelyi.search import SearchSpec, minimal_belyi_degree
from oracles import root_multiplicity

F3 = FiniteField(3, 1)
F5 = FiniteField(5, 1)
F7 = FiniteField(7, 1)
GOLDEN = Path(__file__).parent / "golden"


def _finish(n, limit, started):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {n} took {elapsed:.2f}s, limit {limit}s"
    print(f"criterion {n}: PASS ({elapsed:.2f}s)")


def test_criterion_1_tame_bound_values():
    started = time.perf_counter()
    assert tame_bound(0, 0, 0, 89).value == 88
    assert tame_bound(0, 0, 0, 83).value == 6888
    assert tame_threshold(1, 0, 0) == Fraction(3125)
    assert lcm_up_to(0) == 1
    assert lcm_up_to(6) == 60
    _finish(1, 1.0, started)


def test_criterion_2_wild_bound_values():
    started = time.perf_counter()
    assert wild_N(0, 0) == 2
    assert wild_bound(0, 0, 0, 3).value == 162
    # q+1-N-s = 4 is nonnegative but 4^2 = 16 < 4 g^2 q = 20
    assert point_supply_check(5, 1, 2, 0) is False
    _finish(2, 1.0, started)


def test_criterion_3_symmetric_products_match_divisor_enumeration():
    started = time.perf_counter()
    curves = [
        ProjectiveLine(F3),
        ProjectiveLine(F5),
        Hyperelliptic(F5, Polynomial(F5, (0, 1, 0, 1))),
        Hyperelliptic(F3, Polynomial(F3, (0, 2, 0, 1))),
        Hyperelliptic(F3, Polynomial(F3, (1, 2, 0, 0, 0, 1))),
    ]
    assert curves[4].genus == 2
    for curve in curves:
        counts = point_counts(curve, 3)
        for r in (1, 2, 3):
            sym = sym_product_count(counts, r)
            assert sym == enumerate_effective_divisors(curve, r)
            if isinstance(curve, ProjectiveLine):
                q = curve.q
                assert sym == (q ** (r + 1) - 1) // (q - 1)
    _finish(3, 60.0, started)


def test_criterion_4_zeta_predictions_match_brute_force():
    started = time.perf_counter()
    curves = [
        Hyperelliptic(F5, Polynomial(F5, (0, 1, 0, 1))),
        Hyperelliptic(F5, Polynomial(F5, (1, 1, 0, 1))),
        Hyperelliptic(F7, Polynomial(F7, (2, 0, 0, 1))),
    ]
    reference = curves[0]
    assert count_points(reference, 1) == 4
    assert zeta_fit(reference).predict_N(2) == 32
    for curve in curves:
        data = zeta_fit(curve)
        for m in (1, 2, 3):
            brute = count_points(curve, m)
            assert data.predict_N(m) == brute
            assert hasse_weil_check(curve.q, curve.genus, m, brute)
    _finish(4, 60.0, started)


def test_criterion_5_power_maps_verify_tame():
    started = time.perf_counter()
    for q in (5, 7, 9, 13):
        res = tame_power_map(q)
        assert res.verdict.passed
        report = res.verdict.report
        at_zero, at_inf = report.branch_points
        assert at_inf.is_infinity
        assert not at_zero.is_infinity
        assert at_zero.representative == P1Point.of(res.map.field.zero)
        assert report.rh_defect == 0
    _finish(5, 60.0, started)


def test_criterion_6_wild_composites_verify_and_fit_the_bound():
    started = time.perf_counter()
    cases = [
        (BelyiInstance(F3, [], ["0"]), 162),
        (BelyiInstance(F5, ["2"], []), 6250),
    ]
    for inst, ceiling in cases:
        res = wild_belyi_compose(inst)
        assert res.verdict.passed
        report = res.verdict.report
        assert all(bp.is_infinity for bp in report.branch_points)
        for pt in inst.S:
            assert res.map(pt).is_infinity
        for pt in inst.T:
            assert not res.map(pt).is_infinity
        bound = wild_bound(0, inst.s, inst.t, inst.field.p)
        assert bound.value == ceiling
        assert res.degree < bound.value
        # the additive layer here spans the whole prime field; rebuild it
        # and check the tower promises directly
        tower_deg = next(e["degree"] for e in res.provenance if e["step"] == "tower")
        assert tower_deg == inst.field.p ** 2 * inst.field.q
        tower = wild_h_tower(list(inst.field.elements()))
        h0 = tower.h0
        assert h0.derivative().degree == 0
        assert not h0.derivative().is_zero
        p = inst.field.p
        for i, c in enumerate(h0.coeffs):
            if not c.is_zero:
                e = i
                while e > 1 and e % p == 0:
                    e //= p
                assert e == 1, f"coefficient at non-p-power exponent {i}"
        zero = P1Point.of(inst.field.zero)
        assert not tower.psi(zero).is_infinity
        for alpha in inst.field.elements():
            if not alpha.is_zero:
                assert tower.psi(P1Point.of(alpha)).is_infinity
    _finish(6, 300.0, started)


def test_criterion_7_search_finds_the_minimal_degrees():
    started = time.perf_counter()
    inst = BelyiInstance(F5, p1_points(F5), [])
    res = minimal_belyi_degree(SearchSpec(inst, "tame", 4, fields=[F5]))
    assert res["degree"] == 4
    assert res["exhausted"] is True
    assert res["candidates_tested"] == 78121
    witness = res["witness"]
    assert str(witness) == "poly=0,0,0,0,1"
    assert verify_tame_belyi(witness, inst.S, ()).passed

    trivial = BelyiInstance(F5, [], [])
    res = minimal_belyi_degree(SearchSpec(trivial, "tame", 2, fields=[F5]))
    assert res["degree"] == 1
    _finish(7, 3.0, started)


def test_criterion_7_search_exhausts_q7_up_to_degree_4():
    """No tame Belyi map of degree <= 4 over F_7 sends all of P^1(F_7) into
    {0, 1, inf}.  Every candidate is counted: there are q^(2d - 1) (q^2 - 1)
    reduced maps of degree d with monic denominator.  The q^(2 d_max + 1) =
    7^9 candidates fit under the default guard."""
    started = time.perf_counter()
    inst = BelyiInstance(F7, p1_points(F7), [])
    res = minimal_belyi_degree(SearchSpec(inst, "tame", 4, fields=[F7]))
    assert res["degree"] is None and res["witness"] is None
    assert res["exhausted"] is True
    assert res["candidates_tested"] == sum(7 ** (2 * d - 1) * 48 for d in range(1, 5)) == 40353600
    _finish(7, 10.0, started)


def test_criterion_7_search_finds_the_minimal_tame_degree_over_f7():
    """The least degree of a tame Belyi map over F_7 that sends all of
    P^1(F_7) into {0, 1, inf} is 6, and x^6 is the first such map: every
    candidate of degree <= 5 is exhausted and x^6 heads the degree-6 stream,
    so the count is the q^(2d - 1) (q^2 - 1) maps of each degree below 6
    plus one.  The guard is raised to the q^(2 d_max + 1) = 7^13 candidates."""
    started = time.perf_counter()
    inst = BelyiInstance(F7, p1_points(F7), [])
    res = minimal_belyi_degree(SearchSpec(inst, "tame", 6, fields=[F7]), guard=7 ** 13)
    assert res["degree"] == 6
    assert res["exhausted"] is True
    witness = res["witness"]
    assert str(witness) == "poly=0,0,0,0,0,0,1"
    assert res["candidates_tested"] == sum(7 ** (2 * d - 1) * 48 for d in range(1, 6)) + 1 == 1977326737
    assert verify_tame_belyi(witness, inst.S, ()).passed
    _finish(7, 10.0, started)


def test_criterion_7_search_counts_a_hit_past_the_first_block_of_its_row():
    """Over F_7 the first tame map of degree <= 4 that sends 0, ..., 5 into
    {0, 1, inf} has denominator x^4 and numerator code 6626, in the third
    block of 7^4 codes of its row, so its place counts two blocks by Phi(x^4)
    before the codes of its own block.  Two workers find the same hit at the
    same count."""
    started = time.perf_counter()
    inst = BelyiInstance(F7, [str(k) for k in range(6)], [])
    spec = SearchSpec(inst, "tame", 4, fields=[F7])
    for workers in (1, 2):
        res = minimal_belyi_degree(spec, workers=workers, guard=10 ** 13)
        assert res["degree"] == 4 and res["exhausted"] is True
        assert str(res["witness"]) == "num=4,1,2,5,2/den=0,0,0,0,1"
        assert res["candidates_tested"] == 5770474
        assert verify_tame_belyi(res["witness"], inst.S, ()).passed
    _finish(7, 10.0, started)


def test_criterion_7_search_exhausts_q9_up_to_degree_5():
    """No tame Belyi map of degree <= 5 over F_9 sends all of P^1(F_9) into
    {0, 1, inf}; x^8 does, so the least degree over F_9 is 7 or 8.  With no
    hit, every degree counts its q^(2d - 1) (q^2 - 1) maps in closed form.
    The claim holds over F_9 alone, not over its algebraic closure.  The
    guard is raised to the q^(2 d_max + 1) = 9^11 candidates."""
    started = time.perf_counter()
    F9 = FiniteField(3, 2)
    inst = BelyiInstance(F9, p1_points(F9), [])
    res = minimal_belyi_degree(SearchSpec(inst, "tame", 5, fields=[F9]), guard=9 ** 11)
    assert res["degree"] is None and res["witness"] is None
    assert res["exhausted"] is True and res["fields_searched"] == ["3^2"]
    assert res["candidates_tested"] == sum(9 ** (2 * d - 1) * 80 for d in range(1, 6)) == 31381059600
    assert verify_tame_belyi(RationalMap.from_polynomial(Polynomial.x(F9) ** 8), inst.S, ()).passed
    _finish(7, 10.0, started)


def test_criterion_8_collapse_map_regression_and_brute_force():
    started = time.perf_counter()
    x = Polynomial.x(F5)
    xi = RationalMap.from_polynomial(-(x ** 4) + x)

    golden = json.loads((GOLDEN / "verify_collapse_q5.json").read_text())
    stray = next(p for p in golden["report"]["points"] if p["min_poly"] == "1,1")
    assert stray["branch_image"] == "3"
    assert golden["passed"] is False

    verdict = verify_tame_belyi(xi, (), ())
    doc = verdict.report.to_dict()
    assert [(p["min_poly"], p["index"], p["branch_image"]) for p in doc["points"]] == [
        (p["min_poly"], p["index"], p["branch_image"]) for p in golden["report"]["points"]
    ]

    # brute force over F_25: exactly three affine double points, one at -1
    # with image 3, the other two with image killed by x^2+3x+4
    E = FiniteField(5, 2)
    eps = embed(F5, E)
    g = xi.num.map_coefficients(eps)
    doubles = []
    for a in E.elements():
        shifted = g - Polynomial.constant(E, g.evaluate(a))
        m = root_multiplicity(shifted, a)
        assert m in (1, 2)
        if m == 2:
            doubles.append((a, g.evaluate(a)))
    assert len(doubles) == 3
    minus_one = eps(-F5.one)
    three = eps(F5.from_int_value(3))
    rest = []
    for a, v in doubles:
        if a == minus_one:
            assert v == three
        else:
            rest.append(v)
    assert len(rest) == 2
    for v in rest:
        assert v * v + eps(F5.from_int_value(3)) * v + eps(F5.from_int_value(4)) == E.zero

    # the literal shifted map fails under both readings of the point set
    shifted_map = RationalMap.from_polynomial(x ** 4 - Polynomial.one(F5))
    everything = p1_points(F5)
    assert not verify_tame_belyi(shifted_map, everything, ()).passed
    assert not verify_tame_belyi(shifted_map, (), everything).passed
    for name in ("verify_shifted_marked_q5.json", "verify_shifted_avoided_q5.json"):
        pinned = json.loads((GOLDEN / name).read_text())
        assert pinned["passed"] is False
    _finish(8, 60.0, started)


def test_criterion_9_pipeline_total_degree_under_the_bound():
    started = time.perf_counter()
    desc = CoveringDescriptor.identity(F5, S=["2"], T=["3"])
    rec = tame_pipeline(desc, S=["2"], T=["3"])
    assert rec["total_degree"] == 1
    assert rec["composite"] is not None
    assert rec["composite"].verdict.passed
    assert rec["total_degree"] <= tame_bound(0, 1, 1, 5).value
    _finish(9, 60.0, started)
