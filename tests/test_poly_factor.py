import importlib
import os
import random
import subprocess
import sys
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbelyi
from pbelyi import cli
from pbelyi.errors import InternalInconsistencyError, PreconditionError
from pbelyi.factor import (
    equal_degree,
    factor,
    is_irreducible,
    pth_root,
    roots,
    split_root,
    squarefree_decomposition,
)
from pbelyi.field import FiniteField, _prime_divisors, embed, galois_orbit
from pbelyi.poly import Polynomial, parse_poly
from oracles import musser_squarefree, root_multiplicity, squarefree_part

F3 = FiniteField(3)
F5 = FiniteField(5)
F9 = FiniteField(3, 2)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def rabin_is_irreducible(f):
    """Oracle: Rabin's test, which shares no loop with `distinct_degree`.

    f of degree m >= 1 is irreducible iff x^(q^m) = x mod f and
    gcd(f, x^(q^(m/l)) - x) = 1 for every prime l dividing m.
    """
    fld = f.field
    m = f.degree
    if m < 1:
        return False
    if m == 1:
        return True
    f = f.monic()
    x = Polynomial.x(fld)
    if x.powmod(fld.q ** m, f) != x % f:
        return False
    return all(f.gcd(x.powmod(fld.q ** (m // ell), f) - x).degree == 0 for ell in _prime_divisors(m))


def all_polynomials(field, max_degree):
    """Every polynomial of degree <= max_degree over field, zero included."""
    elems = list(field.elements())
    return tuple(Polynomial(field, coeffs) for coeffs in product(elems, repeat=max_degree + 1))


def mobius(n):
    out = 1
    for ell in _prime_divisors(n):
        if n % (ell * ell) == 0:
            return 0
        out = -out
    return out


def necklace_count(q, d):
    """Monic irreducibles of degree d over F_q: (1/d) sum over e | d of mu(d/e) q^e."""
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d


EXHAUSTIVE_IRREDUCIBILITY = [(F3, 5), (F5, 4), (FiniteField(7), 3), (F9, 3)]


def test_polynomial_basics():
    f = P(F5, 1, 0, 1)  # x^2 + 1
    assert f.degree == 2
    assert f.is_monic
    assert P(F5).is_zero and P(F5).degree == -1
    assert P(F5, 0, 0).is_zero
    assert f(F5(2)) == F5(0)
    assert f(F5(1)) == F5(2)


def test_divmod_and_gcd():
    f = P(F5, 1, 0, 1)
    g = P(F5, 3, 1)  # x + 3, a factor
    q, r = divmod(f, g)
    assert r.is_zero
    assert q * g == f
    assert f.gcd(g) == g.monic()
    h = P(F5, 1, 1)
    assert f.gcd(h).is_constant


def test_derivative_and_compose():
    f = P(F3, 0, 0, 0, 1)  # x^3
    assert f.derivative().is_zero
    g = P(F5, 1, 4, 0, 1)
    h = P(F5, 2, 1)
    lhs = g.compose(h)
    for a in F5.elements():
        assert lhs(a) == g(h(a))


def test_root_multiplicity():
    f = P(F5, 0, 0, 1) * P(F5, 4, 1) ** 3  # x^2 (x+4)^3
    assert root_multiplicity(f, F5(0)) == 2
    assert root_multiplicity(f, F5(1)) == 3
    assert root_multiplicity(f, F5(2)) == 0


def test_hasse_derivatives_are_taylor_coefficients():
    """H_j f(a) is the t^j coefficient of f(a + t); j! H_j f is the j-th derivative,
    which is zero for j >= p while H_j f need not be."""
    rng = random.Random(7)
    for fld in (F3, F5, F9):
        for _ in range(20):
            f = Polynomial(fld, [fld.from_int_value(rng.randrange(fld.q)) for _ in range(rng.randrange(1, 12))])
            for a in fld.elements():
                shifted = f.compose(Polynomial(fld, [a, fld.one]))
                assert [f.hasse_derivative(j)(a) for j in range(f.degree + 2)] == [
                    shifted.coeff(j) for j in range(f.degree + 2)
                ]
            nth = f
            for j in range(f.degree + 2):
                assert f.hasse_derivative(j) * factorial(j) == nth
                nth = nth.derivative()
    assert P(F3, 0, 0, 0, 1).hasse_derivative(3) == P(F3, 1)  # x^3 has H_3 = 1 but zero derivative
    assert P(F5, 1, 2).hasse_derivative(0) == P(F5, 1, 2)
    assert all(P(F5, *([0] * 9), 1).hasse_derivative(j) == P(F5, *([0] * (9 - j)), comb(9, j)) for j in range(10))


def test_multiplicity_refuses_a_divisor_of_degree_below_1():
    """A nonzero constant divides every polynomial, so the division loop never
    ended; zero raised a bare ZeroDivisionError.  Run in a child interpreter
    with a timeout, so that a regression fails the test instead of hanging the suite."""
    code = (
        "from oracles import multiplicity\n"
        "from pbelyi.errors import PreconditionError\n"
        "from pbelyi.field import FiniteField\n"
        "from pbelyi.poly import Polynomial\n"
        "for F in (FiniteField(5), FiniteField(3, 2)):\n"
        "    for g in ([2], [], [1]):\n"
        "        try:\n"
        "            multiplicity(Polynomial(F, [1, 1]), Polynomial(F, g))\n"
        "        except PreconditionError as exc:\n"
        "            print(exc)\n"
    )
    # the child interpreter imports the same pbelyi as this one, and the oracle beside this file
    here = str(Path(__file__).parent)
    path = os.pathsep.join(filter(None, (str(Path(pbelyi.__file__).parents[1]), here, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "multiplicity needs a divisor of positive degree, got " + g for g in ("2", "0", "1", "2,0", "0", "1,0")
    ]


def test_reverse():
    f = P(F5, 1, 2, 3)
    assert f.reverse().coeffs == (F5(3), F5(2), F5(1))
    g = f.reverse(4)
    assert g.degree == 4 and g.coeff(4) == F5(1) and g.coeff(0) == F5(0)


def test_factor_worked_examples():
    # x^2 + 1 over F_5 = (x - 2)(x - 3) = (x + 3)(x + 2)
    unit, parts = factor(P(F5, 1, 0, 1))
    assert unit == F5.one
    assert parts == [(P(F5, 2, 1), 1), (P(F5, 3, 1), 1)]
    # x^3 over F_3 is x with multiplicity 3
    unit, parts = factor(P(F3, 0, 0, 0, 1))
    assert parts == [(Polynomial.x(F3), 3)]
    # x^2 + 1 is irreducible over F_3
    unit, parts = factor(P(F3, 1, 0, 1))
    assert parts == [(P(F3, 1, 0, 1), 1)]
    assert is_irreducible(P(F3, 1, 0, 1))
    assert not is_irreducible(P(F5, 1, 0, 1))


def test_roots_examples():
    assert roots(P(F5, 1, 0, 1)) == [F5(2), F5(3)]
    assert roots(P(F3, 1, 0, 1)) == []
    # x^q - x splits into all field elements
    f = Polynomial.from_roots(F9, list(F9.elements()))
    assert sorted(roots(f), key=lambda e: e.int_value) == list(F9.elements())


def test_pth_root():
    g = P(F3, 1, 2, 0, 1)
    f = g ** 3
    assert f.derivative().is_zero
    assert pth_root(f) == g
    with pytest.raises(PreconditionError):
        pth_root(P(F3, 1, 1))
    # over an extension the coefficients need a Frobenius pre-image
    z = F9.gen
    h = Polynomial(F9, [z, F9.one])
    assert pth_root(h ** 3) == h


def test_squarefree_decomposition_structure():
    f = P(F5, 1, 1) ** 2 * P(F5, 2, 1) ** 5 * P(F5, 3, 1)
    parts = squarefree_decomposition(f)
    assert (P(F5, 3, 1), 1) in parts
    assert (P(F5, 1, 1), 2) in parts
    assert (P(F5, 2, 1), 5) in parts
    assert squarefree_part(f) == (P(F5, 1, 1) * P(F5, 2, 1) * P(F5, 3, 1)).monic()


@pytest.mark.parametrize("field, max_degree", [(F3, 7), (F5, 5), (F9, 3)], ids=str)
def test_yun_matches_musser_exhaustively(field, max_degree):
    """Every monic polynomial up to max_degree; the decomposition reads only the monic associate."""
    for degree in range(max_degree + 1):
        for coeffs in product(range(field.q), repeat=degree):
            f = Polynomial._from_values(field, [field.from_code(c) for c in coeffs] + [field.one_value])
            assert squarefree_decomposition(f) == musser_squarefree(f), f


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)], ids=str)
def test_yun_matches_musser_on_seeded_products(p, n):
    """Products of up to four random monic factors with multiplicities up to 27,
    multiples of p among them, so that the recursion on the p-th root runs."""
    field = FiniteField(p, n)
    rng = random.Random(f"yun:{p}:{n}")
    wild = 0
    for _ in range(40):
        f = Polynomial.constant(field, field.from_int_value(rng.randrange(1, field.q)))
        for _ in range(rng.randrange(1, 5)):
            coeffs = [field.from_int_value(rng.randrange(field.q)) for _ in range(rng.randrange(1, 4))]
            m = rng.choice([rng.randrange(1, 28), p * rng.randrange(1, 27 // p + 1)])
            f = f * Polynomial(field, coeffs + [1]) ** m
        parts = squarefree_decomposition(f)
        assert parts == musser_squarefree(f), f
        wild += any(m % p == 0 for _, m in parts)
    assert wild >= 10


def test_a_failed_inner_pth_root_is_an_internal_error(monkeypatch, capsys):
    """Inside the decomposition a p-th root is taken of a p-th power by construction,
    so its failure is a bug (exit 1), while the public pth_root refuses bad input (exit 2)."""
    def refuse(f):
        raise PreconditionError("polynomial is not a p-th power")

    monkeypatch.setattr(importlib.import_module("pbelyi.factor"), "pth_root", refuse)
    with pytest.raises(InternalInconsistencyError, match="not a p-th power"):
        squarefree_decomposition(P(F3, 0, 0, 0, 1, 1))  # x^3 (x + 1)
    # the Wronskian of x^3 + x^4 is x^3
    argv = ["verify", "tame", "--q", "3", "--map", "poly=0,0,0,1,1", "--S", "none", "--T", "none"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("internal error:")


def test_yun_loop_of_p_steps_is_an_internal_error(monkeypatch):
    """With v' read as 0 after f' the loop finds no part of v = x (x + 1) and runs p steps."""
    real = Polynomial.derivative
    calls = []

    def first_only(self):
        calls.append(self)
        return real(self) if len(calls) == 1 else Polynomial(self.field)

    monkeypatch.setattr(Polynomial, "derivative", first_only)
    with pytest.raises(InternalInconsistencyError, match="ran 3 steps"):
        squarefree_decomposition(P(F3, 0, 0, 1, 1))  # x^2 (x + 1)


def test_factor_recomposition_randomized():
    rng = random.Random(99)
    for fld in (F3, F5, F9):
        for _ in range(40):
            deg = rng.randrange(1, 7)
            coeffs = [fld.from_int_value(rng.randrange(fld.q)) for _ in range(deg)]
            coeffs.append(fld.from_int_value(rng.randrange(1, fld.q)))
            f = Polynomial(fld, coeffs)
            unit, parts = factor(f, rng=rng.randrange(10**6))
            recomposed = Polynomial.constant(fld, unit)
            for g, m in parts:
                assert g.is_monic
                assert rabin_is_irreducible(g)
                recomposed = recomposed * g ** m
            assert recomposed == f


@pytest.mark.parametrize("field, max_degree", EXHAUSTIVE_IRREDUCIBILITY, ids=str)
def test_is_irreducible_agrees_with_rabin_exhaustively(field, max_degree):
    """Every polynomial, monic or not and squarefree or not, up to max_degree.

    Rabin's test reads only the monic associate, so it runs once per associate.
    """
    oracle = {}
    for f in all_polynomials(field, max_degree):
        g = f.monic()
        if g not in oracle:
            oracle[g] = rabin_is_irreducible(g)
        assert is_irreducible(f) == oracle[g], f


@pytest.mark.parametrize("field, max_degree", EXHAUSTIVE_IRREDUCIBILITY, ids=str)
def test_monic_irreducible_counts_match_the_necklace_formula(field, max_degree):
    found = {}
    for f in all_polynomials(field, max_degree):
        if f.is_monic and is_irreducible(f):
            found[f.degree] = found.get(f.degree, 0) + 1
    assert found == {d: necklace_count(field.q, d) for d in range(1, max_degree + 1)}


def test_factor_deterministic_with_default_seed():
    f = P(F5, 2, 0, 4, 0, 0, 1, 1)
    assert factor(f) == factor(f)
    assert factor(f, rng=123) == factor(f, rng=123)


def test_irreducible_factors_have_no_small_field_roots():
    # distinct-degree style cross-check: a reported degree-d irreducible has
    # no root in F_{q^e} for e < d, and d of them in F_{q^d}; we verify via
    # gcd(x^{q^e} - x, g) degrees.
    f = P(F5, 1, 0, 0, 0, 1, 1)  # x^5 + x^4 + 1
    _, parts = factor(f)
    x = Polynomial.x(F5)
    for g, _ in parts:
        d = g.degree
        for e in range(1, d):
            assert g.gcd(x.powmod(5**e, g) - x).is_constant
        full = g.gcd(x.powmod(5**d, g) - x)
        assert full.degree == d


def test_parse_poly_round_trip():
    f = P(F5, 1, 0, 3)
    assert parse_poly(F5, str(f)) == f
    z = F9.gen
    g = Polynomial(F9, [z, F9.one, z + 1])
    assert parse_poly(F9, str(g)) == g
    assert parse_poly(F5, "0").is_zero


def test_parse_poly_rejects_coordinates_out_of_range():
    for field, text in ((F5, "0,7"), (F5, "1,-1"), (F9, "0;1,3"), (F9, "2,0;5")):
        with pytest.raises(PreconditionError, match="outside"):
            parse_poly(field, text)
    assert parse_poly(F5, "0,4") == P(F5, 0, 4)


def test_split_root_examples():
    assert split_root(P(F5, 1, 0, 1)) in (F5(2), F5(3))
    assert split_root(P(F5, 3, 2)) == F5(1)  # 2x + 3
    f = Polynomial.from_roots(F9, list(F9.elements()))
    assert split_root(f) in list(F9.elements())
    with pytest.raises(PreconditionError):
        split_root(P(F5, 2))
    # x^2 + 2 has no root in F_5, and x^3 + 2x + 1 is irreducible over F_3:
    # the random splits give up instead of running for ever
    with pytest.raises(PreconditionError, match="not a product"):
        split_root(P(F5, 2, 0, 1))
    with pytest.raises(PreconditionError, match="not a product"):
        equal_degree(P(F3, 1, 2, 0, 1), 1)


@settings(max_examples=60)
@given(data=st.data())
def test_split_root_is_a_root_of_a_split_product(data):
    field = data.draw(st.sampled_from((F3, F5, FiniteField(7), F9, FiniteField(5, 2), FiniteField(3, 3))))
    codes = data.draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=8, unique=True))
    f = Polynomial.from_roots(field, [field.from_int_value(c) for c in codes])
    found = roots(f)
    assert [r.int_value for r in found] == sorted(codes)
    assert split_root(f, rng=data.draw(st.integers(0, 99))) in found


@settings(max_examples=40)
@given(data=st.data())
def test_split_root_orbit_is_every_root_of_an_irreducible(data):
    base = data.draw(st.sampled_from((F3, F5, F9)))
    k = data.draw(st.integers(1, 4 if base.q < 9 else 3))
    ext = FiniteField(base.p, base.n * k)
    eps = embed(base, ext)
    a = ext.from_int_value(data.draw(st.integers(0, ext.q - 1)))
    # the minimal polynomial of a over base, with coefficients read in ext
    min_poly = Polynomial.from_roots(ext, galois_orbit(a, base))
    assert all(eps(eps.section(c)) == c for c in min_poly.coeffs)
    assert galois_orbit(split_root(min_poly), base) == tuple(roots(min_poly))
