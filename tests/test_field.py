import gc
import itertools
import pickle
import random
import sys
import time

import pytest

from pbelyi import field as field_module
from pbelyi.errors import PreconditionError
from pbelyi.field import (
    EmbeddingMap,
    FieldElement,
    FiniteField,
    _relation,
    embed,
    frobenius,
    galois_orbit,
    is_prime,
    parse_element,
    parse_field,
    prime_power,
)
from pbelyi.factor import is_irreducible
from pbelyi.poly import Polynomial
from oracles import log_exp_tables, search_modulus, search_modulus_screened


def brute_first_irreducible_quadratic(p):
    """Oracle: first monic quadratic with no root, by base-p value of (c0, c1)."""
    for k in range(p * p):
        c0, c1 = k % p, (k // p) % p
        if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
            return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic found")


def test_canonical_modulus_matches_enumeration_oracle():
    for p in (3, 5, 7):
        fld = FiniteField(p, 2)
        assert fld.modulus == brute_first_irreducible_quadratic(p)
    assert FiniteField(3, 2).modulus == (1, 0, 1)  # x^2 + 1


# the first irreducible monic of each degree in code order, recorded when
# Rabin's test still chose them; they fix every extension-field coordinate
# in the goldens and reports
PINNED_MODULI = {
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (13, 2): (2, 0, 1),
}


@pytest.mark.parametrize("pn", sorted(PINNED_MODULI), ids=str)
def test_canonical_moduli_are_pinned(pn):
    assert field_module._canonical_modulus(*pn) == PINNED_MODULI[pn]


def test_the_root_screen_keeps_every_modulus():
    """The modulus search skips candidates with a root in F_p, and below
    degree 4 takes the first one left without Ben-Or's test; it finds the
    modulus of the plain loop, which tests every candidate, for each (p, n)
    with p <= 13 and p^n <= 5^10."""
    pairs = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(1, 15) if p ** n <= 5 ** 10]
    assert len(pairs) == 44
    for p, n in pairs:
        assert field_module._search_modulus(p, n) == search_modulus(p, n), (p, n)


def test_the_root_screen_finds_the_modulus_of_the_screen_at_zero_and_plus_minus_one():
    """Against the search that skipped only roots at 0, 1 and -1, for every odd prime p and n >= 2 with
    p^n <= 10^6."""
    pairs = [(p, n) for p in range(3, 1000) if is_prime(p) for n in range(2, 20) if p ** n <= 10 ** 6]
    assert len(pairs) == 218
    for p, n in pairs:
        assert field_module._search_modulus(p, n) == search_modulus_screened(p, n), (p, n)


def test_the_screens_leave_ben_or_11_candidates_before_the_modulus_of_f_5_10(monkeypatch):
    """5 does not divide 5 - 1, so no x^10 + c is irreducible and the search starts at code 5, past
    x^10 + 2 and x^10 + 3, which have no root in F_5; the root screen leaves 11 candidates before the
    modulus.  Below degree 4 the screen alone decides."""
    factor_module = sys.modules["pbelyi.factor"]
    tested = []
    real = factor_module.is_irreducible

    def counting(f):
        tested.append(f.values)
        return real(f)

    monkeypatch.setattr(factor_module, "is_irreducible", counting)
    assert field_module._search_modulus(5, 10) == PINNED_MODULI[5, 10]
    assert len(tested) == 12 and tested[-1] == PINNED_MODULI[5, 10]
    tested.clear()
    assert [field_module._search_modulus(p, n) for p, n in ((3, 2), (3, 3), (13, 2), (7, 3))] == [
        PINNED_MODULI[3, 2], PINNED_MODULI[3, 3], PINNED_MODULI[13, 2], PINNED_MODULI[7, 3]
    ]
    assert tested == []  # below degree 4 the screen alone decides


def test_the_root_screen_costs_no_evaluation_at_each_point_of_a_large_prime_field():
    """Over p near 10^9 the search screens roots by gcd(f, x^p - x), not by evaluating f at all p points:
    x^2 + 1 has no root mod 10^9 + 7, so each of its 10^9 values would be read.  10^9 + 9 is 1 mod 3,
    so its first cubic candidates without a root come early."""
    start = time.perf_counter()
    built = [FiniteField(p, n).modulus for p, n in ((10 ** 9 + 7, 2), (10 ** 9 + 9, 2), (10 ** 9 + 9, 3))]
    assert time.perf_counter() - start < 1.0
    assert built == [(1, 0, 1), (11, 0, 1), (2, 0, 0, 1)]
    assert built == [search_modulus(10 ** 9 + 7, 2), search_modulus(10 ** 9 + 9, 2), search_modulus(10 ** 9 + 9, 3)]


def test_the_binomial_rule_matches_a_scan_of_the_binomials():
    """Capelli's rule (field._irreducible_binomials) lets the search scan the codes below p exactly when
    Ben-Or's test finds an irreducible x^n + c, for every odd prime p < 60 and 2 <= n <= 8."""
    outcomes = []
    for p in range(3, 60):
        if is_prime(p):
            for n in range(2, 9):
                binomials = (Polynomial(FiniteField(p), [c] + [0] * (n - 1) + [1]) for c in range(1, p))
                found = any(map(is_irreducible, binomials))
                assert field_module._irreducible_binomials(p, n) == found, (p, n)
                outcomes.append(found)
    assert len(outcomes) == 16 * 7 and 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("p, n", [(10 ** 9 + 7, 3), (10 ** 9 + 7, 4), (10 ** 9 + 9, 5)])
def test_a_large_prime_with_no_irreducible_binomial_starts_at_code_p(p, n):
    """3 and 5 do not divide p - 1, and 10^9 + 7 is 3 mod 4: the search skips the p binomials, and finds
    the first irreducible of a Ben-Or scan from code p."""
    assert not field_module._irreducible_binomials(p, n)
    modulus = FiniteField(p, n).modulus
    assert is_irreducible(Polynomial(FiniteField(p), modulus))
    assert field_module._code_of(modulus[:-1], p) >= p
    assert modulus == search_modulus(p, n, start=p)


def test_the_pipeline_over_f_10007_builds_its_working_field_with_few_ben_or_tests(monkeypatch, capsys):
    """The tame pipeline of x^2 over F_10007 with S = {1}, T = {2, 10005} works in F_10007^12: 3 does not
    divide 10006, so the modulus search skips the 10007 binomials, and Ben-Or's test sees only the 13
    candidates of degree 12 from code p up to the modulus."""
    from pbelyi import cli

    factor_module = sys.modules["pbelyi.factor"]
    tested = []
    real = factor_module.is_irreducible

    def counting(f):
        tested.append((f.degree, field_module._code_of(f.values[:-1], 10007) >= 10007))
        return real(f)

    monkeypatch.setattr(field_module, "_canonical_modulus", field_module._ModulusCache(field_module._search_modulus))
    monkeypatch.setattr(factor_module, "is_irreducible", counting)
    argv = ["--json", "construct", "pipeline", "--q", "10007", "--map", "poly=0,0,1", "--S", "1", "--T", "2,10005"]
    assert cli.main(argv) == 0
    assert '"field": "10007^12"' in capsys.readouterr().out
    assert tested == [(12, True)] * 13


# every tabled extension field, by its canonical modulus, then explicit moduli whose first primitive
# element is not linear: F_3^4 mod x^4 + x^2 + 2, F_5^4 mod x^4 + 3 and F_3^6 mod x^6 + 2x^2 + 1
TABLED = [(p, n, None) for p in range(3, 64) if is_prime(p) for n in range(2, 12) if p ** n <= field_module.TABLE_LIMIT]
TABLED += [(3, 4, (2, 0, 1, 0, 1)), (5, 4, (3, 0, 0, 0, 1)), (3, 6, (1, 0, 2, 0, 0, 0, 1))]


def test_the_walk_on_codes_builds_the_tables_of_the_tuple_loop():
    """The same g, and equal exp, log, zech and coords, as the build that stepped the powers of g on
    coordinate tuples after testing each candidate's order by square-and-multiply."""
    assert len(TABLED) == 29 + 3
    first_codes = []
    for p, n, modulus in TABLED:
        modulus = modulus or field_module._canonical_modulus(p, n)
        g, *tables = log_exp_tables(p, n, modulus)
        built = list(field_module._log_exp_tables(p, n, modulus))
        assert built == tables and built[0][1] == field_module._code_of(g, p), (p, n, modulus)
        first_codes.append(built[0][1])
    assert first_codes[-3:] == [12, 30, 14]


def test_building_a_tabled_field_multiplies_no_elements(monkeypatch):
    """Building a tabled field calls neither _pow_by_squaring nor _value_ops, and builds no F_p: every
    canonical one, its modulus found already and none interned, and the tables on each explicit modulus,
    whose irreducibility test takes powers.  F_p and a field above TABLE_LIMIT build _value_ops once each."""
    calls = []
    real_pow, real_value_ops = field_module._pow_by_squaring, field_module._value_ops

    def counting_pow(*args):
        calls.append("pow")
        return real_pow(*args)

    def counting_value_ops(p, n, modulus):
        calls.append((p, n))
        return real_value_ops(p, n, modulus)

    canonical = [(p, n) for p, n, modulus in TABLED if modulus is None]
    for p, n in canonical + [(3, 8)]:
        field_module._canonical_modulus(p, n)
    monkeypatch.setattr(field_module._canonical_modulus, "fields", {})
    monkeypatch.setattr(field_module, "_pow_by_squaring", counting_pow)
    monkeypatch.setattr(field_module, "_value_ops", counting_value_ops)
    fields = [FiniteField(p, n) for p, n in canonical]
    for p, n, modulus in TABLED[len(canonical):]:
        field_module._log_exp_tables(p, n, modulus)
    assert calls == []
    assert len(field_module._canonical_modulus.fields) == 29  # and no prime field
    assert all(fld._log is not None for fld in fields)
    nine = fields[0]  # F_3[x]/(x^2 + 1)
    assert nine.gen * nine.gen == nine.element(-1) and calls == []  # by lookup
    assert 3 ** 8 > field_module.TABLE_LIMIT
    FiniteField(3)
    FiniteField(3, 8)
    assert calls == [(3, 1), (3, 8)]


def test_modulus_cache_keeps_the_name_the_benchmark_clears():
    """perfbench/run.py clears this cache before every pass and reads its
    misses as field.modulus_searches; without the name it skips both."""
    cache = getattr(field_module, "_canonical_modulus", None)
    assert callable(getattr(cache, "cache_clear", None))
    assert callable(getattr(cache, "cache_info", None))


def test_prime_field_modulus_is_x():
    assert FiniteField(5).modulus == (0, 1)
    assert FiniteField(5).q == 5


def test_field_creation_rejects_bad_input():
    with pytest.raises(PreconditionError):
        FiniteField(2, 3)
    with pytest.raises(PreconditionError):
        FiniteField(4)
    with pytest.raises(PreconditionError):
        FiniteField(9)
    with pytest.raises(PreconditionError):
        FiniteField(5, 0)
    with pytest.raises(PreconditionError):
        FiniteField(3, 2, modulus=[2, 0, 1])  # x^2 + 2 = (x+1)(x+2)


def test_explicit_modulus_accepted():
    fld = FiniteField(3, 2, modulus=[2, 2, 1])  # x^2 + 2x + 2, irreducible
    z = fld.gen
    assert z * z == fld.element([1, 1])  # z^2 = -2z - 2 = z + 1


@pytest.mark.parametrize("text", ["5", "3^2", "3^2/2,2,1", "5^6"])
def test_fields_pickle_by_their_description(text):
    """A copy is rebuilt from (p, n, modulus): a prime field, a tabled field,
    a custom modulus, and a field above TABLE_LIMIT without tables."""
    fld = parse_field(text)
    copy = pickle.loads(pickle.dumps(fld))
    assert copy is not fld
    assert copy == fld
    assert (str(copy), hash(copy)) == (str(fld), hash(fld)) == (text, hash(fld))
    assert (copy._exp, copy._log) == (fld._exp, fld._log)
    assert (fld._log is not None) == (text in ("3^2", "3^2/2,2,1"))
    a, b = fld.from_code(fld.q - 1), fld.from_code(fld.q // 2)
    assert copy.mul(a, b) == fld.mul(a, b)
    assert copy.inv(a) == fld.inv(a)


# -- interning: FiniteField(p, n) is one field per cached canonical modulus


def test_canonical_fields_are_interned():
    assert FiniteField(3, 6) is FiniteField(3, 6)
    assert FiniteField(5) is FiniteField(5, 1)
    assert field_module._canonical_modulus.fields[3, 6] is FiniteField(3, 6)


def test_clearing_the_moduli_drops_every_interned_field(cold_fields):
    """No table, Zech table or embedding built before the clear is reused after it."""
    old = FiniteField(3, 6)
    eps = embed(FiniteField(3, 2), old)
    old_exp, old_zech, old_embeddings = old._exp, old._zech, old._embeddings
    assert list(old_embeddings.values()) == [eps.image_of_generator.value]
    field_module._canonical_modulus.cache_clear()
    assert field_module._canonical_modulus.fields == {}
    new = FiniteField(3, 6)
    assert new is not old and new == old
    assert new._exp is not old_exp and new._exp == old_exp
    assert new._embeddings == {}
    assert new._zech is not old_zech and new._zech == old_zech  # built with the new tables
    assert embed(FiniteField(3, 2), new).image_of_generator == FieldElement(new, eps.image_of_generator.value)
    assert new._embeddings is not old_embeddings and new._embeddings == old_embeddings
    assert FiniteField(3, 6) is new


def test_explicit_moduli_are_never_interned():
    canonical = FiniteField(3, 2)
    explicit = [FiniteField(3, 2, canonical.modulus) for _ in range(2)]
    assert explicit == [canonical] * 2
    assert all(fld is not canonical for fld in explicit) and explicit[0] is not explicit[1]
    assert FiniteField(3, 2, (2, 2, 1)) is not FiniteField(3, 2, (2, 2, 1))
    assert FiniteField(3, 2) is canonical


@pytest.mark.parametrize("args", [([5],), (4,), (2,), ("5",), (5, 0), (5, [2]), ([5], 2)], ids=repr)
def test_interning_keeps_the_precondition_errors(args):
    with pytest.raises(PreconditionError):
        FiniteField(*args)


def test_a_pickled_copy_is_equal_and_leaves_the_interned_field():
    fld = FiniteField(3, 6)
    embed(FiniteField(3, 2), fld)
    copy = pickle.loads(pickle.dumps(fld))
    assert copy == fld and copy is not fld and hash(copy) == hash(fld)
    assert copy._exp == fld._exp and copy._embeddings == {}
    assert FiniteField(3, 6) is fld


def test_a_dropped_field_leaves_no_reference_cycle():
    """On each route (F_7, the tabled F_3^6 with its Zech logarithms and F_5^6
    above TABLE_LIMIT) a field with cached embeddings, whose bound polynomial
    kernel has run a gcd, an inverse_mod and a powmod, is freed by its
    reference count alone, so no field waits for the cyclic collector."""
    routes = (  # (p, n, modulus) and the degrees of the subfields to embed
        ((7, 1, (0, 1)), ()),
        ((3, 6, PINNED_MODULI[3, 6]), (2, 3)),
        ((5, 6, PINNED_MODULI[5, 6]), (2, 3)),
    )
    for (p, n, modulus), degrees in routes:
        sub = [FiniteField(p, k) for k in degrees]
        gc.collect()
        gc.disable()
        try:
            fld = FiniteField(p, n, modulus)  # not interned: this test holds the only reference
            for source in sub:
                embed(source, fld)
            assert len(fld._embeddings) == len(sub)
            f, m = Polynomial(fld, [fld.gen, 1]), Polynomial(fld, [1, 0, 1])  # x + gen is prime to x^2 + 1
            assert f.gcd(m).is_constant and (f * f.inverse_mod(m)) % m == Polynomial.one(fld)
            sign = 1 if fld.q % 4 == 1 else -1  # x^q = x (x^2)^((q-1)/2) = ±x modulo x^2 + 1
            assert f.powmod(fld.q, m) == Polynomial(fld, [fld.gen, sign])  # and gen^q = gen
            del fld, f, m
            assert gc.collect() == 0, (p, n)
        finally:
            gc.enable()


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(3125 // 625)
    assert not is_prime(1) and not is_prime(91) and not is_prime(561)


def test_finite_field_checks_its_characteristic_once(monkeypatch):
    """FiniteField refuses a p that is no int by its own check, naming p, and its primality test checks
    no more; is_prime on its own checks its n."""
    checked = []
    real = field_module.check_int

    def recording(name, value, *bounds):
        checked.append((name, value))
        return real(name, value, *bounds)

    monkeypatch.setattr(field_module, "check_int", recording)
    FiniteField(7)
    assert checked == [("p", 7), ("n", 1)]
    checked.clear()
    assert is_prime(7) and checked == [("n", 7)]


PSI_12 = 318665857834031151167461  # the least strong pseudoprime to the 12 prime bases 2 .. 37
PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to the 13 prime bases 2 .. 41


def test_is_prime_rejects_psi_12_and_refuses_undecided_n_from_psi_13_up():
    assert PSI_12 == 399165290221 * 798330580441 and PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    with pytest.raises(PreconditionError, match="characteristic must be prime"):
        FiniteField(PSI_12)
    for n in (PSI_13, 2 ** 89 - 1):  # a composite and a Mersenne prime, both past what the bases decide
        with pytest.raises(PreconditionError, match="decide only n below 3317044064679887385961981"):
            is_prime(n)
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))  # past the limit, but a base proves it composite


def test_arithmetic_worked_examples():
    f7 = FiniteField(7)
    assert f7(3) + f7(5) == f7(1)
    f9 = FiniteField(3, 2)
    z = f9.gen
    assert z * z == f9(2)  # z^2 = -1
    f5 = FiniteField(5)
    assert f5(2) ** 4 == f5(1)
    assert (f5(2) / f5(3)) * f5(3) == f5(2)
    with pytest.raises(ZeroDivisionError):
        f5.zero.inverse()


@pytest.mark.parametrize("text", ["3", "3^2", "5^6"])
def test_an_int_is_a_prime_field_constant_on_every_route(text):
    """On F_p, on a tabled field, whose values are codes, and above TABLE_LIMIT,
    an int coerces to the constant it names mod p, never to the element of that code."""
    fld = parse_field(text)
    p = fld.p
    assert fld.element(p).is_zero and fld(p + 1) == fld.one
    assert fld.element(-1) == fld.element(fld.q - 1) == -fld.one
    assert fld.element(p).coords == (0,) * fld.n
    assert Polynomial(fld, [p, p + 2]) == Polynomial(fld, [0, 2])
    if fld.n > 1:
        assert fld.from_int_value(p) == fld.gen != fld.element(p)


def test_field_axioms_exhaustive_small():
    for fld in (FiniteField(3), FiniteField(3, 2)):
        elems = list(fld.elements())
        assert len(elems) == fld.q
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * a.inverse() == fld.one


def test_field_axioms_randomized():
    rng = random.Random(20240815)
    fields = [FiniteField(5), FiniteField(7), FiniteField(5, 2), FiniteField(3, 3), FiniteField(13)]
    samples = 0
    while samples < 1200:
        fld = rng.choice(fields)
        a = fld.from_int_value(rng.randrange(fld.q))
        b = fld.from_int_value(rng.randrange(fld.q))
        c = fld.from_int_value(rng.randrange(fld.q))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == fld.zero
        if not b.is_zero:
            assert (a / b) * b == a
        assert a ** fld.q == a  # q-power Frobenius fixes nothing... fixes everything in F_q
        samples += 1


def test_frobenius_examples():
    f9 = FiniteField(3, 2)
    z = f9.gen
    assert frobenius(z, 1) == -z
    assert frobenius(z, 2) == z
    f27 = FiniteField(3, 3)
    for a in f27.elements():
        assert frobenius(a, 3) == a


def test_frobenius_is_ring_homomorphism():
    rng = random.Random(7)
    f25 = FiniteField(5, 2)
    for _ in range(300):
        a = f25.from_int_value(rng.randrange(25))
        b = f25.from_int_value(rng.randrange(25))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_galois_orbit_examples():
    f9 = FiniteField(3, 2)
    f3 = FiniteField(3)
    z = f9.gen
    orbit = galois_orbit(z, f3)
    assert set(orbit) == {z, -z}
    assert galois_orbit(f9.one, f3) == (f9.one,)
    # orbit over the field itself is a single point
    assert galois_orbit(z, f9) == (z,)
    with pytest.raises(PreconditionError):
        galois_orbit(z, FiniteField(5))


def test_galois_orbit_size_divides_degree():
    f27 = FiniteField(3, 3)
    f3 = FiniteField(3)
    for a in f27.elements():
        assert len(galois_orbit(a, f3)) in (1, 3)


def test_embed_prime_field_is_constant_inclusion():
    f5 = FiniteField(5)
    f25 = FiniteField(5, 2)
    eps = embed(f5, f25)
    assert eps(f5(2)) == f25(2)
    assert eps(f5(0)) == f25.zero


def test_embed_properties():
    f9 = FiniteField(3, 2)
    f81 = FiniteField(3, 4)
    eps = embed(f9, f81)
    img = eps.image_of_generator
    # the image satisfies the source modulus: img^2 + 1 = 0
    assert img * img + f81.one == f81.zero
    # homomorphism + injectivity on the whole source
    seen = set()
    for a in f9.elements():
        seen.add(eps(a))
    assert len(seen) == 9
    for a in f9.elements():
        for b in f9.elements():
            assert eps(a + b) == eps(a) + eps(b)
            assert eps(a * b) == eps(a) * eps(b)


@pytest.mark.parametrize("source, target", [((5, 1), (5, 2)), ((3, 2), (3, 6)), ((3, 3), (3, 6)), ((5, 1), (5, 6)), ((5, 2), (5, 6))])
def test_embedding_images_match_the_coordinate_sum(source, target):
    """image_value sums a_i gen^i with the target's value ops; it agrees with
    the sum taken on coordinates mod p for every source element, into tabled
    targets and into F_{5^6}, above TABLE_LIMIT."""
    src, tgt = FiniteField(*source), FiniteField(*target)
    assert (tgt._log is None) == (tgt.q > field_module.TABLE_LIMIT)
    eps = embed(src, tgt)
    p, gen = tgt.p, eps.image_of_generator
    powers = [(gen ** i).coords for i in range(src.n)]
    for k in range(src.q):
        a = src.from_code(k)
        acc = [0] * tgt.n
        for c, w in zip(src.coords(a), powers):
            acc = [x + c * y for x, y in zip(acc, w)]
        assert eps.image_value(a) == tgt.value_of([x % p for x in acc])


def test_embed_picks_lexicographically_smallest_root():
    from pbelyi.factor import roots
    from pbelyi.poly import Polynomial

    f9 = FiniteField(3, 2)
    f81 = FiniteField(3, 4)
    eps = embed(f9, f81)
    mod = Polynomial(f81, [f81.element(c) for c in f9.modulus])
    all_roots = roots(mod)
    assert eps.image_of_generator in all_roots
    assert eps.image_of_generator.coords == min(r.coords for r in all_roots)


def test_embed_degree_divisibility_required():
    with pytest.raises(PreconditionError):
        embed(FiniteField(3, 2), FiniteField(3, 3))
    with pytest.raises(PreconditionError):
        embed(FiniteField(3), FiniteField(5))


def test_embedding_composition_along_tower():
    f3 = FiniteField(3)
    f9 = FiniteField(3, 2)
    f81 = FiniteField(3, 4)
    lower = embed(f3, f9)
    upper = embed(f9, f81)
    through = upper.compose(lower)
    for a in f3.elements():
        assert through(a) == upper(lower(a))
        for b in f3.elements():
            assert through(a * b) == through(a) * through(b)


def test_relation_against_brute_force_spans():
    """field._relation returns None exactly for a vector outside the span of the
    rows' vectors, found by enumerating every combination, and otherwise the
    relation c with sum c_i v_i + vector = 0, monic in the vector, rows untouched."""
    rng = random.Random(7)
    for fld in (FiniteField(3), FiniteField(5), FiniteField(3, 2)):
        add, mul, zero, one = fld.add, fld.mul, fld.zero_value, fld.one_value
        values = [fld.from_code(c) for c in range(fld.q)]

        def combine(coeffs, vectors, dim):
            out = [zero] * dim
            for c, v in zip(coeffs, vectors):
                out = [add(x, mul(c, y)) for x, y in zip(out, v)]
            return out

        for _ in range(80):
            dim = rng.randint(1, 3)
            rows, basis = [], []
            for _ in range(rng.randint(1, 5)):
                if basis and rng.random() < 0.5:
                    vector = combine([rng.choice(values) for _ in basis], basis, dim)
                else:
                    vector = [rng.choice(values) for _ in range(dim)]
                span = {tuple(combine(c, basis, dim)) for c in itertools.product(values, repeat=len(basis))}
                before = list(rows)
                rel = _relation(fld, rows, list(vector))
                if tuple(vector) in span:
                    assert rel is not None and len(rel) == len(basis) + 1 and rel[-1] == one
                    assert combine(rel, basis + [vector], dim) == [zero] * dim
                    assert rows == before
                else:
                    assert rel is None and len(rows) == len(basis) + 1
                    basis.append(vector)


def test_embedding_section_roundtrip():
    """section(a) is the preimage of a when a lies in the image set built from
    every source element, and PreconditionError otherwise: on every target
    element of seven towers, and on 2,000 seeded elements of F_5^6, above
    TABLE_LIMIT, together with its 25 image elements."""
    rng = random.Random(29)
    for (p, a, b) in ((3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 4), (5, 2, 4), (3, 2, 6), (3, 3, 6), (5, 2, 6)):
        source, target = FiniteField(p, a), FiniteField(p, b)
        eps = embed(source, target)
        preimage = {eps(s): s for s in source.elements()}
        assert len(preimage) == source.q
        if target.q <= field_module.TABLE_LIMIT:
            elements = list(target.elements())
        else:
            elements = [target.from_int_value(rng.randrange(target.q)) for _ in range(2000)] + list(preimage)
        for x in elements:
            if x in preimage:
                assert eps.section(x) == preimage[x]
            else:
                with pytest.raises(PreconditionError, match="does not descend"):
                    eps.section(x)


def test_element_order_and_str():
    f9 = FiniteField(3, 2)
    e = f9.element([2, 1])
    assert str(e) == "2,1"
    assert e.int_value == 2 + 1 * 3
    ordered = list(f9.elements())
    assert ordered == sorted(ordered, key=lambda x: x.int_value)


def test_parse_round_trips():
    for text in ("5", "3^2", "7", "3^2/2,2,1"):
        fld = parse_field(text)
        assert parse_field(str(fld)) == fld
    f9 = parse_field("3^2")
    assert parse_element(f9, "2,1") == f9.element([2, 1])
    assert str(parse_element(f9, "2,1")) == "2,1"
    # the parser range-checks coordinates; FiniteField.element still reduces ints mod p
    with pytest.raises(PreconditionError, match=r"outside \[0, 5\)"):
        parse_element(FiniteField(5), "7")
    with pytest.raises(PreconditionError):
        parse_element(f9, "2,-1")
    assert FiniteField(5).element(7) == FiniteField(5)(2)


def test_parse_field_rejects_a_modulus_out_of_range():
    # a coordinate outside [0, p), a count other than n + 1, a leading coefficient other than 1
    for text in ("3^2/1,0,4", "3^2/-2,0,1", "3^2/1,0,1,0", "3^2/1,1", "3^2/2,0,2", "5/3,2"):
        with pytest.raises(PreconditionError, match="modulus"):
            parse_field(text)
    assert parse_field("3^2/2,2,1").modulus == (2, 2, 1)
    assert parse_field("5/3,1").modulus == (3, 1)
    # the constructor still reduces its input
    assert FiniteField(3, 2, [4, 0, 1]).modulus == (1, 0, 1)
    assert FiniteField(3, 2, [-2, 0, 1, 0]).modulus == (1, 0, 1)


def test_prime_power_splits_odd_prime_powers():
    for q, want in ((3, (3, 1)), (9, (3, 2)), (25, (5, 2)), (3 ** 7, (3, 7))):
        assert prime_power(q) == want
    for bad in (1, 2, 4, 15, 45, True, 3.0):
        with pytest.raises(PreconditionError, match="odd prime power"):
            prime_power(bad)
    # a prime cofactor ends the trial division: neither call takes 2^30 steps
    big = 2 ** 61 - 1
    assert prime_power(big) == (big, 1)
    with pytest.raises(PreconditionError):
        prime_power(3 * big)


def test_prime_power_decides_large_q_without_trial_division():
    p1, p2 = 10 ** 9 + 7, 10 ** 9 + 9
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="odd prime power"):
        prime_power(p1 * p2)
    assert prime_power(p1 ** 2) == (p1, 2)
    assert prime_power(p1 ** 3) == (p1, 3)
    with pytest.raises(PreconditionError):
        prime_power(p1 ** 2 * p2 ** 2)  # a square, but of a composite
    assert time.perf_counter() - start < 0.5
    for q in (81, 3 ** 12, 5 ** 8, 7 ** 5, 2 ** 61 - 1):
        p, n = prime_power(q)
        assert p ** n == q and is_prime(p)
    for bad in (3 ** 4 * 5 ** 4, 9 * 25, 2 ** 10, 3 ** 3 * 2):
        with pytest.raises(PreconditionError):
            prime_power(bad)
