import random

import pytest

from pbelyi.errors import PreconditionError
from pbelyi.field import (
    EmbeddingMap,
    FiniteField,
    embed,
    frobenius,
    galois_orbit,
    is_prime,
    parse_element,
    parse_field,
    prime_power,
)


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


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(3125 // 625)
    assert not is_prime(1) and not is_prime(91) and not is_prime(561)


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


def test_embedding_section_roundtrip():
    f5 = FiniteField(5)
    f25 = FiniteField(5, 2)
    eps = embed(f5, f25)
    for a in f5.elements():
        assert eps.section(eps(a)) == a
    with pytest.raises(PreconditionError):
        eps.section(f25.gen)  # the generator is not rational over F_5


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
    assert parse_element(FiniteField(5), "7") == FiniteField(5)(2)


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
