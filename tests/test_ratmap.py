import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pbelyi
from pbelyi.errors import InternalInconsistencyError, PreconditionError
from pbelyi.field import FieldElement, FiniteField, embed
from pbelyi.poly import Polynomial
from pbelyi.ratmap import (
    P1Point,
    RationalMap,
    mobius_from_triple,
    p1_points,
    p1_points_outside,
    parse_point,
    parse_point_set,
    parse_ratmap,
    three_points,
    wronskian,
)
from oracles import conjugate_by_reciprocal, is_separable

F3 = FiniteField(3)
F5 = FiniteField(5)
F7 = FiniteField(7)


def rmap(field, num, den=(1,)):
    return RationalMap(Polynomial(field, num), Polynomial(field, den))


def pt(field, v):
    return P1Point(field, field.element(v))


INF5 = P1Point.infinity(F5)


def test_reduction_and_normalization():
    # (x^2 - 1)/(x - 1) reduces to x + 1
    f = rmap(F5, (4, 0, 1), (4, 1))
    assert f.num == Polynomial(F5, (1, 1))
    assert f.den == Polynomial.one(F5)
    assert f.degree == 1
    # (2x + 1)/2 normalizes to (x + 3)/1
    g = rmap(F5, (1, 2), (2,))
    assert g.num == Polynomial(F5, (3, 1))
    assert g.den == Polynomial.one(F5)
    with pytest.raises(PreconditionError):
        rmap(F5, (1,), ())


def test_only_a_non_monic_denominator_is_inverted(monkeypatch):
    calls = []
    real_inverse = FieldElement.inverse

    def counting_inverse(self):
        calls.append(self)
        return real_inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting_inverse)
    f = rmap(F5, (1, 2), (4, 1))
    assert calls == [] and f.den == Polynomial(F5, (4, 1))
    h = rmap(F5, (1, 2), (3, 2))  # (2x + 1)/(2x + 3) normalizes to (x + 3)/(x + 4)
    assert calls == [F5(2)]
    assert (h.num, h.den) == (Polynomial(F5, (3, 1)), Polynomial(F5, (4, 1)))


def test_degree_and_constant_flag():
    assert rmap(F5, (0, 0, 0, 0, 1)).degree == 4
    assert rmap(F5, (2,), (0, 1)).degree == 1
    assert rmap(F5, (2,)).is_constant
    assert not rmap(F5, (0, 1)).is_constant


def test_evaluate_worked_examples():
    f = rmap(F7, (1,), (5, 1))  # 1/(x + 5) = 1/(x - 2)
    assert f(pt(F7, 2)) == P1Point.infinity(F7)
    assert f(pt(F7, 3)) == pt(F7, 1)
    assert f(pt(F7, 6)) == pt(F7, 2)  # 1/4 = 2 mod 7
    quart = rmap(F5, (0, 0, 0, 0, 1))
    assert quart(INF5) == INF5
    xi = rmap(F5, (0, 1, 0, 0, 4))  # -x^4 + x
    assert xi(pt(F5, 1)) == pt(F5, 0)
    # equal degrees at infinity: ratio of leading coefficients
    g = rmap(F5, (1, 0, 2), (3, 0, 1))
    assert g(INF5) == pt(F5, 2)
    # smaller numerator degree at infinity gives zero
    h = rmap(F5, (1, 1), (0, 0, 1))
    assert h(INF5) == pt(F5, 0)


def test_evaluate_via_embedding():
    f = rmap(F5, (0, 0, 1))  # x^2
    f25 = FiniteField(5, 2)
    eps = embed(F5, f25)
    z = f25.gen
    assert f.map_coefficients(eps)(P1Point(f25, z)) == P1Point(f25, z * z)
    with pytest.raises(PreconditionError):
        f.evaluate(P1Point(f25, z))
    with pytest.raises(PreconditionError):  # an embedding of another field
        f.map_coefficients(embed(FiniteField(3), FiniteField(3, 2)))


def test_compose_examples():
    cube = rmap(F3, (0, 1, 0, 1))  # x^3 + x
    nine = cube.compose(cube)
    assert nine.degree == 9
    inv = rmap(F5, (1,), (0, 1))
    assert inv.compose(inv) == RationalMap.identity(F5)
    double_recip = conjugate_by_reciprocal(rmap(F5, (0, 0, 1)))
    assert double_recip == rmap(F5, (1,), (0, 0, 1))


def test_compose_degree_multiplicative_randomized():
    rng = random.Random(424)
    for fld in (F3, F5):
        made = 0
        while made < 25:
            fn = [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))]
            fd = [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))]
            gn = [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))]
            gd = [rng.randrange(fld.q) for _ in range(rng.randrange(1, 4))]
            try:
                f = rmap(fld, fn, fd)
                g = rmap(fld, gn, gd)
            except PreconditionError:
                continue
            if f.is_constant or g.is_constant:
                continue
            assert f.compose(g).degree == f.degree * g.degree
            made += 1


def test_compose_evaluate_homomorphism_exhaustive():
    cases = [
        (F3, rmap(F3, (0, 1, 0, 1)), rmap(F3, (1,), (1, 1))),
        (F5, rmap(F5, (0, 0, 1)), rmap(F5, (2, 1), (0, 1))),
        (FiniteField(3, 2), None, None),
    ]
    for fld, f, g in cases:
        if f is None:
            z = fld.gen
            f = RationalMap(Polynomial(fld, (z, 0, fld.one)), Polynomial(fld, (fld.one, z)))
            g = RationalMap(Polynomial(fld, (0, z)), Polynomial.one(fld))
        ext = FiniteField(fld.p, fld.n * 2)
        eps = embed(fld, ext)
        fg = f.compose(g)
        f_e, g_e, fg_e = (m.map_coefficients(eps) for m in (f, g, fg))
        for point in p1_points(ext):
            assert fg_e(point) == f_e(g_e(point))


def test_mobius_worked_example():
    m = mobius_from_triple(pt(F5, 2), P1Point.infinity(F5), pt(F5, 3))
    assert m.num == Polynomial(F5, (3, 1))  # x - 2
    assert m.den == Polynomial(F5, (2, 1))  # x - 3
    assert m(pt(F5, 2)) == pt(F5, 0)
    assert m(P1Point.infinity(F5)) == pt(F5, 1)
    assert m(pt(F5, 3)) == P1Point.infinity(F5)


def test_mobius_all_slots_and_errors():
    a, b, c = pt(F7, 1), pt(F7, 4), pt(F7, 6)
    m = mobius_from_triple(a, b, c)
    assert (m(a), m(b), m(c)) == (pt(F7, 0), pt(F7, 1), P1Point.infinity(F7))
    m2 = mobius_from_triple(P1Point.infinity(F7), b, c)
    assert m2(P1Point.infinity(F7)) == pt(F7, 0)
    m3 = mobius_from_triple(a, b, P1Point.infinity(F7))
    assert m3.degree == 1
    with pytest.raises(PreconditionError):
        mobius_from_triple(a, a, c)



def test_mobius_checks_its_images_explicitly(monkeypatch):
    monkeypatch.setattr(RationalMap, "__call__", lambda self, point: P1Point.infinity(self.field))
    with pytest.raises(InternalInconsistencyError, match="not to 0"):
        mobius_from_triple(pt(F5, 0), pt(F5, 1), P1Point.infinity(F5))


def test_mobius_check_survives_python_O():
    code = (
        "from pbelyi.errors import InternalInconsistencyError\n"
        "from pbelyi.field import FiniteField\n"
        "from pbelyi.ratmap import P1Point, RationalMap, mobius_from_triple\n"
        "F = FiniteField(5)\n"
        "RationalMap.__call__ = lambda self, point: P1Point.infinity(F)\n"
        "try:\n"
        "    mobius_from_triple(P1Point(F, 0), P1Point(F, 1), P1Point.infinity(F))\n"
        "except InternalInconsistencyError:\n"
        "    print('caught')\n"
    )
    # the child interpreter imports the same pbelyi as this one
    path = os.pathsep.join(filter(None, (str(Path(pbelyi.__file__).parents[1]), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout == "caught\n", proc.stderr


def test_mobius_randomized_triples():
    rng = random.Random(11)
    pts = list(p1_points(F7))
    for _ in range(60):
        trio = rng.sample(pts, 3)
        m = mobius_from_triple(*trio)
        assert m.degree == 1


def test_derivative_and_separability():
    cube = rmap(F3, (0, 0, 0, 1))  # x^3
    assert wronskian(cube).is_zero
    assert not is_separable(cube)
    additive = rmap(F3, (0, 1, 0, 1))  # x^3 + x
    assert is_separable(additive)
    assert wronskian(additive) == Polynomial.one(F3)
    quart = rmap(F5, (0, 0, 0, 0, 1))
    assert is_separable(quart)
    xi = rmap(F5, (0, 1, 0, 0, 4))
    assert wronskian(xi) == Polynomial(F5, (1, 0, 0, 1))  # x^3 + 1
    with pytest.raises(PreconditionError):
        is_separable(rmap(F5, (3,)))


def test_derivative_rules_randomized():
    rng = random.Random(5151)
    for _ in range(40):
        u = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        v = Polynomial(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        assert (u * v).derivative() == u.derivative() * v + u * v.derivative()
    # chain rule for maps: (f . g)' = (f' . g) * g'
    mul = lambda a, b: RationalMap(a.num * b.num, a.den * b.den)
    for _ in range(20):
        try:
            f = rmap(F5, [rng.randrange(5) for _ in range(3)], [rng.randrange(5) for _ in range(2)])
            g = rmap(F5, [rng.randrange(5) for _ in range(3)], [rng.randrange(5) for _ in range(2)])
        except PreconditionError:
            continue
        if f.is_constant or g.is_constant:
            continue
        lhs = f.compose(g).derivative()
        rhs = mul(f.derivative().compose(g), g.derivative())
        assert lhs == rhs


def test_point_order_and_parsing():
    pts = p1_points(F5)
    assert [str(p) for p in pts] == ["0", "1", "2", "3", "4", "inf"]
    assert parse_point(F5, "inf").is_infinity
    assert parse_point(F5, "3") == pt(F5, 3)
    assert parse_point_set(F5, "all") == pts
    assert parse_point_set(F5, "") == ()
    assert parse_point_set(F5, "0,1,inf") == (pt(F5, 0), pt(F5, 1), P1Point.infinity(F5))
    assert parse_point_set(F5, "0;1;inf") == (pt(F5, 0), pt(F5, 1), P1Point.infinity(F5))
    f9 = FiniteField(3, 2)
    got = parse_point_set(f9, "2,1;inf")
    assert got == (P1Point(f9, f9.element([2, 1])), P1Point.infinity(f9))


def test_parse_point_rejects_coordinates_out_of_range():
    f25 = FiniteField(5, 2)
    for field, text in ((F5, "5"), (F5, "-1"), (f25, "0,5"), (f25, "5,0"), (f25, "-1,0")):
        with pytest.raises(PreconditionError, match="outside"):
            parse_point(field, text)
    assert parse_point(f25, "4,4") == P1Point(f25, f25.element([4, 4]))


def test_three_points_are_zero_one_infinity():
    assert three_points(F7) == (pt(F7, 0), pt(F7, 1), P1Point.infinity(F7))


def test_ratmap_parse_round_trip():
    for text in ("poly=0,0,0,0,1", "num=0,1/den=2,1", "poly=0,1"):
        m = parse_ratmap(F5, text)
        assert parse_ratmap(F5, str(m)) == m
    with pytest.raises(PreconditionError):
        parse_ratmap(F5, "garbage")


@pytest.mark.parametrize("field", [F3, F5, FiniteField(3, 2)], ids=str)
def test_points_outside_match_filtering_the_whole_line(field):
    line = p1_points(field)
    assert [pt.sort_key() for pt in line] == [(0, k) for k in range(field.q)] + [(1, 0)]
    rng = random.Random(field.q)
    for _ in range(50):
        forbidden = set(rng.sample(line, rng.randrange(len(line) + 1)))
        count = rng.randrange(len(line) + 2)
        want = [pt for pt in line if pt not in forbidden][:count]
        assert list(itertools.islice(p1_points_outside(field, forbidden), count)) == want



def test_polynomials_points_and_maps_pickle():
    E = FiniteField(3, 2, (2, 2, 1))
    f = parse_ratmap(E, "num=0,2;2,1/den=1,1;1,0")
    objects = (f.num, parse_point(E, "1,1"), P1Point.infinity(E), f)
    for obj in objects:
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and str(copy) == str(obj)
        assert copy.field == E and copy.field is not E
    # one pickle rebuilds a shared field once
    num, den = pickle.loads(pickle.dumps((f.num, f.den)))
    assert num.field is den.field
