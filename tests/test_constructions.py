import json

import pytest

from pbelyi.bounds import wild_bound
from pbelyi.constructions import (
    BelyiInstance,
    _fp_span,
    CoveringDescriptor,
    collapse_map,
    fp_span_of_conjugates,
    tame_normalize_small,
    tame_pipeline,
    tame_power_map,
    tame_reduce_recursive,
    wild_belyi_compose,
    wild_h_tower,
    wild_phi,
)
from pbelyi.errors import GuardExceededError, InternalInconsistencyError, PreconditionError
from pbelyi.field import EmbeddingMap, FieldElement, FiniteField
from pbelyi.poly import Polynomial, parse_poly
from pbelyi.ratmap import P1Point, RationalMap, parse_point

F3 = FiniteField(3, 1)
F5 = FiniteField(5, 1)
F7 = FiniteField(7, 1)
F9 = FiniteField(3, 2)


def pt(field, text):
    return parse_point(field, str(text))


def test_power_map_worked_examples():
    res = tame_power_map(5)
    assert res.degree == 4
    assert str(res.map) == "poly=0,0,0,0,1"
    assert res.verdict.passed
    assert [bp.label() for bp in res.verdict.report.branch_points] == ["0", "inf"]

    assert tame_power_map(3).degree == 2
    assert tame_power_map(3).verdict.passed

    nine = tame_power_map(9)
    assert nine.degree == 8
    assert nine.map.field == FiniteField(3, 2)
    assert nine.verdict.passed


def test_power_map_exhaustive_small_fields():
    for q in (3, 5, 7, 9, 11, 13):
        assert tame_power_map(q).verdict.passed


def test_power_map_shifted_variant_fails_both_readings():
    res = tame_power_map(5)
    entry = next(e for e in res.provenance if e["step"] == "rejected shifted variant")
    assert entry["marked reading"]["passed"] is False
    assert entry["avoided reading"]["passed"] is False
    # units collapse onto 0, so reading the point set as avoided must complain
    assert any("avoided point" in v for v in entry["avoided reading"]["violations"])
    # and the shifted map branches over -1, outside the triple
    assert any("branch point 4" in v for v in entry["marked reading"]["violations"])


def test_power_map_input_validation():
    with pytest.raises(PreconditionError):
        tame_power_map(4)
    with pytest.raises(PreconditionError):
        tame_power_map(15)
    with pytest.raises(PreconditionError):
        tame_power_map(2)


def test_normalize_identity_case():
    inst = BelyiInstance(F5, ["0", "1", "inf"], [])
    res = tame_normalize_small(inst, "2")
    assert res.map == RationalMap.identity(F5)
    assert res.verdict.passed
    assert res.provenance[0]["avoided image"] == "2"


def test_normalize_two_points():
    inst = BelyiInstance(F5, ["2", "3"], [])
    res = tame_normalize_small(inst, "0")
    assert res.degree == 1
    assert res.map(pt(F5, "2")) == pt(F5, "0")
    assert res.map(pt(F5, "3")) == pt(F5, "inf")
    assert res.map(pt(F5, "1")) == pt(F5, "1")
    image = res.map(pt(F5, "0"))
    assert image not in {pt(F5, "0"), pt(F5, "1"), pt(F5, "inf")}
    assert res.verdict.passed


def test_normalize_empty_marked_set():
    res = tame_normalize_small(BelyiInstance(F5, [], []), "1")
    assert res.degree == 1
    assert res.map(pt(F5, "1")) not in {pt(F5, "0"), pt(F5, "1"), pt(F5, "inf")}
    assert res.verdict.passed


def test_normalize_validation():
    with pytest.raises(PreconditionError):
        tame_normalize_small(BelyiInstance(F5, ["0", "1", "2", "inf"], []), "3")
    with pytest.raises(PreconditionError):
        tame_normalize_small(BelyiInstance(F5, ["0", "1"], []), "1")


def test_collapse_map_worked_example():
    res = collapse_map(F5, "1", ["0", "1", "2", "inf"], "3")
    assert str(res.map) == "poly=0,1,0,0,4"
    xi = res.map
    assert xi(pt(F5, "0")) == pt(F5, "0")
    assert xi(pt(F5, "1")) == pt(F5, "0")
    # for affine nonzero beta the image is beta/alpha - 1
    assert xi(pt(F5, "2")) == pt(F5, "1")
    assert xi(pt(F5, "inf")) == pt(F5, "inf")
    assert xi(pt(F5, "3")) == pt(F5, "2")
    images = res.provenance[0]["images"]
    assert len(set(images.values())) == 3
    # the report pins the stray critical point at -alpha with branch image 3
    report = res.verdict.report
    stray = next(o for o in report.points if o.min_poly is not None and o.min_poly.degree == 1)
    assert str(stray.min_poly) == "1,1"
    assert str(stray.branch_value) == "3"
    assert not res.verdict.passed


def test_collapse_map_validation():
    with pytest.raises(PreconditionError):
        collapse_map(F5, "1", ["0", "1", "2"], "3")
    with pytest.raises(PreconditionError):
        collapse_map(F5, "2", ["0", "1", "inf"], "3")
    with pytest.raises(PreconditionError):
        collapse_map(F5, "0", ["0", "1", "inf"], "3")
    with pytest.raises(PreconditionError):
        collapse_map(F5, "1", ["0", "1", "inf"], "1")


def test_reduce_small_sets_delegate():
    res = tame_reduce_recursive(BelyiInstance(F5, ["1", "2"], []), "0")
    assert res.degree == 1
    assert res.verdict.passed


def test_reduce_four_points():
    res = tame_reduce_recursive(BelyiInstance(F5, ["0", "1", "2", "inf"], []), "3")
    assert res.degree == 4
    alphas = [e["alpha"] for e in res.provenance if e["step"] == "collapse"]
    assert alphas == ["1"]
    # the collapse step branches outside {0, 1, inf}, and the verdict says so
    assert not res.verdict.passed
    assert any("branch point" in v for v in res.verdict.violations)


def test_reduce_five_points_degree():
    res = tame_reduce_recursive(BelyiInstance(F7, ["0", "1", "2", "3", "inf"], []), "4")
    assert res.degree == 36
    steps = [e for e in res.provenance if e["step"] == "collapse"]
    assert len(steps) == 2


def test_reduce_moves_to_standard_position():
    res = tame_reduce_recursive(BelyiInstance(F5, ["1", "2", "3", "4"], []), "0")
    assert res.provenance[0]["step"] == "move to standard position"
    assert res.degree == 4


def test_reduce_validation():
    with pytest.raises(PreconditionError):
        tame_reduce_recursive(BelyiInstance(F5, ["0", "1"], []), "1")


def test_instance_validation():
    with pytest.raises(PreconditionError):
        BelyiInstance(F5, ["0"], ["0"])
    inst = BelyiInstance(F5, ["2", "0"], ["inf"])
    assert [str(p) for p in inst.S] == ["0", "2"]
    assert inst.s == 2 and inst.t == 1


def test_point_codes_out_of_range_are_rejected():
    F25 = FiniteField(5, 2)
    for field, marked, avoided in ((F5, [0, 5], []), (F5, [-1], []), (F25, [26], []), (F5, [], [7])):
        with pytest.raises(PreconditionError, match="outside"):
            BelyiInstance(field, marked, avoided)
    assert [str(p) for p in BelyiInstance(F25, [0, 24], [5]).S] == ["0,0", "4,4"]


def test_span_of_rational_element():
    span = fp_span_of_conjugates(F3, [F3.one])
    assert sorted(e.int_value for e in span) == [0, 1, 2]


def test_span_of_empty_set():
    span = fp_span_of_conjugates(F5, [])
    assert len(span) == 1 and span[0] == F5.zero


def test_span_of_imaginary_line():
    z = F9.gen
    assert z * z == -F9.one
    span = fp_span_of_conjugates(F3, [z])
    assert sorted(e.int_value for e in span) == [0, 3, 6]
    # stable under the Frobenius x -> x^3
    assert {(e ** 3).int_value for e in span} == {e.int_value for e in span}


def test_span_limit_guard():
    with pytest.raises(GuardExceededError):
        fp_span_of_conjugates(F3, [F3.one], limit=2)


def test_span_guard_fires_before_the_span_grows(monkeypatch):
    F27 = FiniteField(3, 3)
    added = []
    add = FieldElement.__add__
    monkeypatch.setattr(FieldElement, "__add__", lambda a, b: added.append(1) or add(a, b))
    with pytest.raises(GuardExceededError, match="27 elements"):
        _fp_span(F27, [F27.one, F27.gen, F27.gen ** 2], 10)
    # 3 + 9 additions build the spans of sizes 3 and 9; the 27-element one is never built
    assert len(added) == 12


def test_h_tower_on_the_prime_field():
    tower = wild_h_tower(list(F3.elements()))
    assert str(tower.h0) == "0,2,0,1"
    assert tower.h0.derivative().degree == 0
    assert tower.h0.derivative().coeff(0) == -F3.one
    # additive: only exponents 1 and 3 carry coefficients
    nonzero = [i for i, c in enumerate(tower.h0.coeffs) if c != F3.zero]
    assert nonzero == [1, 3]
    assert str(tower.h1.den) == "2,2,0,1,0,0,1"
    assert tower.h2.degree == 27
    assert [bp.label() for bp in tower.report.branch_points] == ["inf"]
    one = P1Point.of(F3.one)
    assert tower.h2(one).is_infinity
    assert tower.h2(pt(F3, "2")).is_infinity
    assert not tower.h2(pt(F3, "0")).is_infinity


def test_h_tower_descends_to_the_base_field():
    z = F9.gen
    V = fp_span_of_conjugates(F3, [z])
    tower = wild_h_tower(V, base_field=F3)
    assert tower.h0.field == F3
    assert str(tower.h0) == "0,1,0,1"
    nonzero = [i for i, c in enumerate(tower.h0.coeffs) if c != F3.zero]
    assert nonzero == [1, 3]
    assert [bp.label() for bp in tower.report.branch_points] == ["inf"]


def test_h_tower_reports_a_coefficient_that_does_not_descend(monkeypatch):
    V = fp_span_of_conjugates(F3, [F9.gen])

    def refuse(self, a):
        raise PreconditionError("element does not descend to the source field")

    monkeypatch.setattr(EmbeddingMap, "section", refuse)
    with pytest.raises(InternalInconsistencyError, match="does not descend to 3"):
        wild_h_tower(V, base_field=F3)


def test_h_tower_validation():
    with pytest.raises(PreconditionError):
        wild_h_tower([F3.one])
    with pytest.raises(PreconditionError):
        wild_h_tower([F3.zero, F3.one])
    with pytest.raises(PreconditionError):
        wild_h_tower([])
    with pytest.raises(GuardExceededError):
        wild_h_tower(list(F3.elements()), degree_limit=10)


def test_wild_phi_plain_quadratic():
    res = wild_phi(BelyiInstance(F5, [], []))
    assert str(res.map) == "poly=0,4,1"
    entry = next(e for e in res.provenance if e["step"] == "pole map")
    assert entry["picked"] == ["0", "1"]
    labels = [bp.label() for bp in res.verdict.report.branch_points]
    assert "0" not in labels and "inf" in labels


def test_wild_phi_with_avoided_zero():
    res = wild_phi(BelyiInstance(F5, [], ["0"]))
    assert res.degree == 2
    assert res.map(pt(F5, "0")) == pt(F5, "0")
    entry = next(e for e in res.provenance if e["step"] == "pole map")
    assert entry["avoided roots"] == ["0"]
    assert entry["picked"] == ["1"]


def test_wild_phi_point_supply_failure():
    with pytest.raises(PreconditionError) as err:
        wild_phi(BelyiInstance(F3, ["0", "1", "2"], []))
    assert "q + 1 - N - s" in str(err.value)


def test_wild_phi_moves_infinity():
    res = wild_phi(BelyiInstance(F5, [], ["inf", "0"]))
    assert res.provenance[0]["step"] == "move infinity"
    assert res.degree == 2
    assert res.map(pt(F5, "inf")) == pt(F5, "0")
    assert res.map(pt(F5, "0")) == pt(F5, "0")
    labels = [bp.label() for bp in res.verdict.report.branch_points]
    assert "0" not in labels


def test_wild_compose_ternary_avoided_zero():
    res = wild_belyi_compose(BelyiInstance(F3, [], ["0"]))
    assert res.degree == 54
    assert res.verdict.passed
    assert [e["h0"] for e in res.provenance if e["step"] == "tower"] == ["0,2,0,1"]
    compose_entry = next(e for e in res.provenance if e["step"] == "compose")
    assert compose_entry["ceiling"] == "162"
    assert compose_entry["margin"] == "108"
    assert not res.map(pt(F3, "0")).is_infinity
    assert all(bp.is_infinity for bp in res.verdict.report.branch_points)


def test_wild_compose_quinary_marked_two():
    res = wild_belyi_compose(BelyiInstance(F5, ["2"], []))
    assert res.degree == 250
    assert res.verdict.passed
    assert res.map(pt(F5, "2")).is_infinity
    assert res.degree < wild_bound(0, 1, 0, 5).value


def test_wild_compose_degree_accounting():
    cases = [
        (F3, [], []),
        (F3, ["1"], ["2"]),
        (F5, [], ["1"]),
    ]
    for field, S, T in cases:
        inst = BelyiInstance(field, S, T)
        res = wild_belyi_compose(inst)
        assert res.verdict.passed
        tower_deg = next(e["degree"] for e in res.provenance if e["step"] == "tower")
        pole_deg = next(e["degree"] for e in res.provenance if e["step"] == "pole map")
        assert res.degree == tower_deg * pole_deg
        assert res.degree < wild_bound(0, inst.s, inst.t, field.p).value


def test_descriptor_identity_shape():
    desc = CoveringDescriptor.identity(F5, S=["2"], T=["3"])
    assert desc.degree == 1 and desc.genus == 0
    assert desc.branch == ()
    doc = desc.to_dict()
    assert doc["n"] == 1 and doc["zS"] == ["2"] and doc["zT"] == ["3"]
    json.dumps(doc)


def test_descriptor_from_map_derives_branch_data():
    x = Polynomial.x(F5)
    square = RationalMap.from_polynomial(x ** 2)
    desc = CoveringDescriptor.from_map(square, S=["0"], T=[])
    derived = {doc["min_poly"]: doc["partition"] for doc in desc.to_dict()["branch"]}
    assert derived == {"0,1": [2], "inf": [2]}


def test_descriptor_validation():
    x = Polynomial.x(F5)
    square = RationalMap.from_polynomial(x ** 2)
    with pytest.raises(PreconditionError):
        CoveringDescriptor(F5, 2, 0, [(x, (1, 1))], (), (), map=square)
    with pytest.raises(PreconditionError):
        CoveringDescriptor(F5, 2, 0, [(x, (3,))])
    with pytest.raises(PreconditionError):
        CoveringDescriptor(F5, 1, 0, (), ["0"], ["1", "2"])
    with pytest.raises(PreconditionError):
        CoveringDescriptor(F5, 1, 1, (), (), (), map=RationalMap.identity(F5))


def test_pipeline_identity_descriptor():
    desc = CoveringDescriptor.identity(F5, S=["2"], T=["3"])
    rec = tame_pipeline(desc, S=["2"], T=["3"])
    assert rec["m"] == 5
    assert rec["L"] == 2
    assert str(rec["extension_field"]) == "5^10"
    assert rec["s_prime"] == 1
    assert rec["total_degree"] == 1
    assert rec["xi"].degree == 1
    assert rec["xi"].verdict.passed
    assert rec["composite"].verdict.passed
    assert str(rec["tau0"]) == "3,0,0,0,0,0,0,0,0,0"


def test_pipeline_without_avoided_set():
    desc = CoveringDescriptor.identity(F5, S=["2"])
    rec = tame_pipeline(desc, S=["2"], T=[])
    assert rec["m"] == 4
    assert rec["L"] == 1
    assert str(rec["extension_field"]) == "5^4"
    # the bookkeeping point is chosen outside S' and the triple
    assert str(rec["tau0"]) == "3,0,0,0"
    assert rec["composite"].verdict.passed
    assert rec["total_degree"] == 1


def test_pipeline_rejects_indivisible_branch_degree():
    quad = parse_poly(F5, "2,0,1")
    desc = CoveringDescriptor(F5, 2, 0, [(quad, (2,))])
    with pytest.raises(PreconditionError) as err:
        tame_pipeline(desc, S=0, T=0)
    assert "does not divide" in str(err.value)


def test_pipeline_sprime_ceiling():
    line = parse_poly(F5, "3,1")
    desc = CoveringDescriptor(F5, 2, 0, [(line, (2,))])
    with pytest.raises(PreconditionError) as err:
        tame_pipeline(desc, S=0, T=0)
    assert "ceiling" in str(err.value)


def test_pipeline_field_degree_guard():
    desc = CoveringDescriptor(F5, 3, 1)
    with pytest.raises(GuardExceededError):
        tame_pipeline(desc, S=0, T=0)


def test_pipeline_input_validation():
    desc = CoveringDescriptor.identity(F5, S=["2"], T=["3"])
    with pytest.raises(PreconditionError):
        tame_pipeline(desc, S=0, T=1)
    with pytest.raises(PreconditionError):
        tame_pipeline(desc, S=["1"], T=["3"])
    bare = CoveringDescriptor(F5, 1, 0, (), (), ["3"])
    with pytest.raises(PreconditionError):
        tame_pipeline(bare, S=0, T=0)


def test_construction_results_serialize():
    res = tame_power_map(3)
    json.dumps(res.to_dict())
    res = wild_belyi_compose(BelyiInstance(F3, [], ["0"]))
    json.dumps(res.to_dict())
