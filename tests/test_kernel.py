"""The value kernel against the object arithmetic it replaced, the F_p[x]
kernel's packed multiply, Newton divide and powmod against schoolbook int-tuple
arithmetic, and properties of field values, log/exp tables, embeddings,
factoring and the point-count stripe."""

import os
import pickle
import random
import subprocess
import sys
from functools import lru_cache, partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbelyi import field as field_module
from pbelyi.counting import _count_stripe
from pbelyi.errors import InternalInconsistencyError, PreconditionError
from pbelyi.factor import factor
from pbelyi.field import TABLE_LIMIT, FiniteField, _value_ops, embed, parse_field
from pbelyi.poly import Polynomial
from test_poly_factor import rabin_is_irreducible

# F_9 .. F_{3^6}, F_{7^3} and F_{5^5} multiply by table (F_{7^3} and F_{5^5}
# have no primitive x + c), F_{5^6} is above TABLE_LIMIT and multiplies
# int-tuple polynomials
FIELDS = tuple(
    FiniteField(p, n)
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 6), (7, 3), (5, 5), (5, 6))
)


# -- reference: element arithmetic on coordinate tuples through int-tuple
# polynomials over F_p, and polynomial arithmetic on element objects, as the
# library computed them before elements became plain values


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, cb in enumerate(b):
        out[i] = (out[i] + cb) % p
    return _trim(out)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _pdivmod(a, b, p):
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] * inv_lead % p
        quo[i - db] = q
        for j, cb in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - q * cb) % p
    return _trim(quo), _trim(rem)


def _pext_gcd(a, b, p):
    """(g, u) with u*a = g mod b and g monic."""
    r0, r1, s0, s1 = a, b, (1,), ()
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, tuple(-c % p for c in _pmul(q, s1, p)), p)
    inv = pow(r0[-1], p - 2, p)
    return _pmul(r0, (inv,), p), _pmul(s0, (inv,), p)


class RefElement:
    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords) + (0,) * (field.n - len(coords))

    def _make(self, coords):
        if len(coords) > self.field.n:
            coords = _pdivmod(coords, self.field.modulus, self.field.p)[1]
        return RefElement(self.field, coords)

    @property
    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return self.coords == other.coords

    def __add__(self, other):
        p = self.field.p
        return RefElement(self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        p = self.field.p
        return RefElement(self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        return self._make(_pmul(_trim(self.coords), _trim(other.coords), self.field.p))

    def inverse(self):
        g, u = _pext_gcd(_trim(self.coords), self.field.modulus, self.field.p)
        assert g == (1,)
        return self._make(u)


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def ref_mul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return ref_trim(out)


def ref_divmod(a, b, zero):
    inv_lead = b[-1].inverse()
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], ref_trim(rem)
    quo = [zero] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        qc = rem[i] * inv_lead
        quo[i - db] = qc
        for j, cb in enumerate(b):
            rem[i - db + j] = rem[i - db + j] - qc * cb
    return ref_trim(quo), ref_trim(rem[:db])


def ref_gcd(a, b, zero):
    while b:
        a, b = b, ref_divmod(a, b, zero)[1]
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def ref_sub(a, b, zero):
    width = max(len(a), len(b))
    a, b = a + [zero] * (width - len(a)), b + [zero] * (width - len(b))
    return ref_trim([x - y for x, y in zip(a, b)])


def ref_inverse_mod(a, m, zero, one):
    """u with u*a = 1 mod m, by extended Euclid on elements; None when a is no unit mod m."""
    r0, r1, s0, s1 = ref_divmod(a, m, zero)[1], m, [one], []
    while r1:
        quo, rem = ref_divmod(r0, r1, zero)
        r0, r1 = r1, rem
        s0, s1 = s1, ref_sub(s0, ref_mul(quo, s1, zero), zero)
    if len(r0) != 1:
        return None
    inv = r0[0].inverse()
    return ref_trim([c * inv for c in s0])


def ref_powmod(a, e, m, zero, one):
    result = ref_divmod([one], m, zero)[1]
    base = ref_divmod(a, m, zero)[1]
    while e > 0:
        if e & 1:
            result = ref_divmod(ref_mul(result, base, zero), m, zero)[1]
        base = ref_divmod(ref_mul(base, base, zero), m, zero)[1]
        e >>= 1
    return result


def ref_of(f):
    return [RefElement(f.field, c.coords) for c in f.coeffs]


def coords_of(ref):
    return [c.coords for c in ref]


# -- strategies


@st.composite
def field_and_codes(draw, count, min_len=0, max_len=10):
    field = draw(st.sampled_from(FIELDS))
    code = st.integers(0, field.q - 1)
    lists = [draw(st.lists(code, min_size=min_len, max_size=max_len)) for _ in range(count)]
    return field, lists


def poly(field, codes):
    return Polynomial(field, [field.from_int_value(c) for c in codes])


# -- the kernel against the reference


@settings(max_examples=200)
@given(data=field_and_codes(1, min_len=2, max_len=2))
def test_element_ops_match_the_reference(data):
    field, [(a, b)] = data
    x, y = field.from_int_value(a), field.from_int_value(b)
    rx, ry = RefElement(field, x.coords), RefElement(field, y.coords)
    assert (x * y).coords == (rx * ry).coords
    assert (x + y).coords == (rx + ry).coords
    assert (x - y).coords == (rx - ry).coords
    if not x.is_zero:
        assert x.inverse().coords == rx.inverse().coords
        assert (y / x).coords == (ry * rx.inverse()).coords


@settings(max_examples=150)
@given(data=field_and_codes(3), e=st.integers(0, 200))
def test_polynomial_kernel_matches_the_reference(data, e):
    field, (ca, cb, cm) = data
    a, b, m = poly(field, ca), poly(field, cb), poly(field, cm)
    zero, one = RefElement(field, ()), RefElement(field, (1,))
    ra, rb, rm = ref_of(a), ref_of(b), ref_of(m)
    assert [c.coords for c in (a * b).coeffs] == coords_of(ref_mul(ra, rb, zero))
    assert [c.coords for c in a.gcd(b).coeffs] == coords_of(ref_gcd(ra, rb, zero))
    if not b.is_zero:
        quo, rem = divmod(a, b)
        rquo, rrem = ref_divmod(ra, rb, zero)
        assert ([c.coords for c in quo.coeffs], [c.coords for c in rem.coeffs]) == (
            coords_of(rquo),
            coords_of(rrem),
        )
    if not m.is_zero:
        assert [c.coords for c in a.powmod(e, m).coeffs] == coords_of(ref_powmod(ra, e, rm, zero, one))
        inverse = ref_inverse_mod(ra, rm, zero, one)
        if inverse is None:
            with pytest.raises(PreconditionError, match="not a unit"):
                a.inverse_mod(m)
        else:
            assert [c.coords for c in a.inverse_mod(m).coeffs] == coords_of(inverse)
    nothing = Polynomial(field)
    for by_zero in (lambda: divmod(a, nothing), lambda: a.powmod(e, nothing), lambda: a.inverse_mod(nothing)):
        with pytest.raises(ZeroDivisionError):
            by_zero()


# -- the F_p[x] kernel against the schoolbook references above, across the
# multiply and divide crossovers and the slot-width fallback

BIG_P = 2 ** 29 - 3  # (p - 1)^2 n fits a 64-bit slot only for n <= 64
KERNEL_PRIMES = (3, 5, 7, BIG_P)


def _random_poly(rng, p, length, monic=False):
    """A trimmed int tuple of the given length, leading coefficient nonzero."""
    if not length:
        return ()
    return tuple(rng.randrange(p) for _ in range(length - 1)) + (1 if monic else rng.randrange(1, p),)


def _ref_powmod(a, e, m, p):
    result = _pdivmod((1,), m, p)[1]
    base = _pdivmod(a, m, p)[1]
    while e > 0:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), m, p)[1]
        base = _pdivmod(_pmul(base, base, p), m, p)[1]
        e >>= 1
    return result


def test_slot_widths():
    assert field_module._slot(255) == (8, "B") and field_module._slot(256) == (16, "H")
    assert field_module._slot(2 ** 32 - 1) == (32, "I") and field_module._slot(2 ** 64 - 1) == (64, "Q")
    assert field_module._slot(2 ** 64) is None
    assert field_module._slot((BIG_P - 1) ** 2 * 64) is not None and field_module._slot((BIG_P - 1) ** 2 * 65) is None


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_multiply_matches_schoolbook_at_every_degree(p):
    """Every length 0..300 against a partner of length 0..80, so both the
    packed and the schoolbook routes meet the reference; squares too."""
    rng = random.Random(f"mul:{p}")
    for n in range(302):
        a = _random_poly(rng, p, n)
        b = _random_poly(rng, p, rng.randrange(min(n, 80) + 1))
        assert field_module._pmul(p, a, b) == _pmul(a, b, p), (n, len(b))
        assert field_module._pmul(p, b, a) == _pmul(a, b, p), (n, len(b))
        if n % 25 == 0:
            assert field_module._pmul(p, a, a) == _pmul(a, a, p), n


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_divmod_matches_schoolbook_at_every_degree(p):
    """Dividends of every length 0..300 by divisors of length 1..80, monic or
    not, so that both long division and the Newton quotient are checked."""
    rng = random.Random(f"div:{p}")
    for n in range(302):
        b = _random_poly(rng, p, rng.randrange(1, 81), monic=n % 2 == 0)
        a = _random_poly(rng, p, n)
        got = field_module._pdivmod(p, a, b)
        if len(a) < len(b):
            assert got == ((), a), (n, len(b))
        else:
            assert got == _pdivmod(a, b, p), (n, len(b))
    for lq, lb in ((300, 150), (150, 300), (200, 24), (24, 200), (257, 129)):
        b = _random_poly(rng, p, lb)
        a = _pmul(_random_poly(rng, p, lq), b, p)
        a = _padd(a, _random_poly(rng, p, lb - 1), p)
        assert field_module._pdivmod(p, a, b) == _pdivmod(a, b, p), (lq, lb)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_edge_operands(p):
    rng = random.Random(f"edge:{p}")
    kernel_mul, kernel_divmod = partial(field_module._pmul, p), partial(field_module._pdivmod, p)
    long = _random_poly(rng, p, 120)
    assert kernel_mul((), long) == kernel_mul(long, ()) == () == kernel_mul((), ())
    assert kernel_divmod((), long) == ((), ())
    with pytest.raises(ZeroDivisionError):
        kernel_divmod(long, ())
    with pytest.raises(ZeroDivisionError):
        field_module._ppowmod(p, long, 3, ())
    c = rng.randrange(2, p)
    assert kernel_divmod(long, (c,)) == (_pmul(long, (pow(c, p - 2, p),), p), ())
    short = _random_poly(rng, p, 40)
    assert kernel_divmod(short, long) == ((), short)
    lead = rng.randrange(2, p)  # a non-monic divisor, long enough for the Newton quotient
    b = _random_poly(rng, p, 60)[:-1] + (lead,)
    assert kernel_divmod(long, b) == _pdivmod(long, b, p)
    assert field_module._inverse_series(p, (c,), 5) == [pow(c, p - 2, p)] + [0] * 4


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_powmod_matches_schoolbook(p):
    """Moduli on both sides of the one-inverse threshold, monic or not, and a
    base longer than the modulus."""
    rng = random.Random(f"powmod:{p}")
    for lm in (1, 2, 5, 11, 12, 13, 20, 40, 90):
        m = _random_poly(rng, p, lm, monic=lm % 2 == 0)
        for la, e in ((0, 3), (1, 0), (lm + 7, 1), (lm, 2), (lm - 1, 5 ** 3), (3 * lm, 7 ** 2 + 3), (lm, 2 ** 40 + 1)):
            a = _random_poly(rng, p, la)
            assert field_module._ppowmod(p, a, e, m) == _ref_powmod(a, e, m, p), (lm, la, e)


def test_one_square_and_multiply_loop():
    """_pow_by_squaring squares once per bit below the top one and multiplies
    once per set bit; Polynomial powers and powmod over F_7 (the kernel) and
    F_9 (the value ops) run it and match repeated multiplication."""
    for e in range(71):
        counts = {"squarings": 0, "products": 0}

        def mul(x, y):
            counts["squarings" if x is y else "products"] += 1
            return [x[0] + y[0]]

        assert field_module._pow_by_squaring(mul, [0], [1], e) == [e]
        assert counts == {"squarings": max(e.bit_length() - 1, 0), "products": bin(e).count("1")}, e
    rng = random.Random("pow")
    for F in (FiniteField(7), FiniteField(3, 2)):
        elements = list(F.elements())
        a, m = (Polynomial(F, [rng.choice(elements) for _ in range(k)] + [F.one]) for k in (3, 5))
        power = Polynomial.one(F)
        for e in range(41):
            assert a ** e == power, (F, e)
            assert a.powmod(e, m) == power % m, (F, e)
            power = power * a


def test_negative_polynomial_powers_are_refused():
    """Over F_7 (the kernel) and F_9 (the value ops) a negative exponent is
    refused by powmod as by **, where powmod used to return 1."""
    for F in (FiniteField(7), FiniteField(3, 2)):
        a = Polynomial(F, [F.one, F.one])
        m = Polynomial(F, [F.one, F.zero, F.one])
        for e in (-1, -2):
            with pytest.raises(PreconditionError, match="negative polynomial power"):
                a.powmod(e, m)
            with pytest.raises(PreconditionError, match="negative polynomial power"):
                a ** e


def test_polynomial_routes_prime_fields_through_the_kernel():
    """Long polynomials over F_7: Polynomial's multiply, divmod and powmod
    against the references, over the Newton and packed routes."""
    rng = random.Random("poly")
    F7 = FiniteField(7)
    a, b, m = (_random_poly(rng, 7, n) for n in (301, 140, 40))
    pa, pb, pm = (Polynomial(F7, c) for c in (a, b, m))
    assert (pa * pb).values == _pmul(a, b, 7)
    quo, rem = divmod(pa, pb)
    assert (quo.values, rem.values) == _pdivmod(a, b, 7)
    assert pa.powmod(7 ** 5, pm).values == _ref_powmod(a, 7 ** 5, m, 7)


def test_kernel_runs_under_optimize():
    """The packed, Newton and fallback routes give the same results with
    asserts stripped (python -O) as the references do here."""
    script = (
        "import random\n"
        "from pbelyi.field import _pmul, _pdivmod, _ppowmod\n"
        "rng = random.Random(11)\n"
        "for p in (7, %d):\n"
        "    a = tuple(rng.randrange(p) for _ in range(199)) + (1,)\n"
        "    b = tuple(rng.randrange(p) for _ in range(79)) + (2,)\n"
        "    print(repr((_pmul(p, a, b), _pdivmod(p, a, b), _ppowmod(p, a, p + 3, b))))\n"
    ) % BIG_P
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.splitlines()
    rng = random.Random(11)
    for p, line in zip((7, BIG_P), out, strict=True):
        a = tuple(rng.randrange(p) for _ in range(199)) + (1,)
        b = tuple(rng.randrange(p) for _ in range(79)) + (2,)
        assert line == repr((_pmul(a, b, p), _pdivmod(a, b, p), _ref_powmod(a, p + 3, b, p)))


# -- properties on values


@settings(max_examples=200)
@given(data=field_and_codes(1, min_len=3, max_len=3), e=st.integers(-20, 40))
def test_field_axioms_on_values(data, e):
    field, [codes] = data
    a, b, c = (field.from_code(k) for k in codes)
    add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
    zero, one = field.zero_value, field.one_value
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a and mul(a, zero) == zero
    assert add(a, neg(a)) == zero and sub(a, b) == add(a, neg(b))
    assert field.from_code(field.code(a)) == a and field.code(a) == codes[0]
    if a != zero:
        assert mul(a, field.inv(a)) == one
        assert field.pow(a, field.q - 1) == one
        assert field.pow(a, e) == field.pow(field.inv(a), -e)
        assert mul(field.pow(a, e), a) == field.pow(a, e + 1)


@settings(max_examples=60)
@given(data=st.data())
def test_embed_is_a_ring_homomorphism_and_section_inverts_it(data):
    base = data.draw(st.sampled_from(FIELDS[:5]))
    k = data.draw(st.integers(1, 3))
    ext = FiniteField(base.p, base.n * k)
    eps = embed(base, ext)
    a, b = (base.from_int_value(data.draw(st.integers(0, base.q - 1))) for _ in range(2))
    assert eps(a + b) == eps(a) + eps(b)
    assert eps(a * b) == eps(a) * eps(b)
    assert eps(base.one) == ext.one and eps(base.zero) == ext.zero
    assert eps.section(eps(a)) == a
    f = Polynomial(base, [a, b, base.one])
    assert f.map_coefficients(eps).coeffs == tuple(eps(c) for c in f.coeffs)


@settings(max_examples=80)
@given(data=field_and_codes(1, min_len=1, max_len=9))
def test_factor_recomposes(data):
    field, [codes] = data
    f = poly(field, codes)
    assume(not f.is_zero)
    unit, parts = factor(f)
    product = Polynomial.constant(field, unit)
    for g, m in parts:
        assert g.is_monic and rabin_is_irreducible(g)
        product = product * g ** m
    assert product == f


@lru_cache(maxsize=None)
def square_counts(field):
    """code of t -> number of y with y^2 = t."""
    squares = {}
    for y in field.elements():
        key = (y * y).int_value
        squares[key] = squares.get(key, 0) + 1
    return squares


@settings(max_examples=15)
@given(codes=st.lists(st.integers(0, 15624), min_size=1, max_size=7), step=st.integers(1, 3))
def test_count_stripe_matches_brute_force(codes, step):
    """On a pickled copy of every field of FIELDS, as a pool worker counts,
    tabled ones taking Euler's criterion by one table power and the others by
    square-and-multiply; above q = 729 one sparse stripe only."""
    for field in FIELDS:
        f = poly(field, [c % field.q for c in codes])
        stride = step if field.q <= 729 else 257 * step
        starts = range(stride) if stride <= 3 else (codes[0] % stride,)
        xs = [field.from_int_value(k) for start in starts for k in range(start, field.q, stride)]
        expected = sum(square_counts(field).get(f.evaluate(x).int_value, 0) for x in xs)
        copy = pickle.loads(pickle.dumps(field))
        stripes = [_count_stripe(copy, f.values, start, stride) for start in starts]
        assert sum(stripes) == expected
        assert stripes == [_count_stripe(field, f.values, start, stride) for start in starts]


# -- log/exp tables


@pytest.mark.parametrize("text", ["3^2", "5^2", "3^3", "3^6", "5^5"])
def test_tables_match_the_int_tuple_ops_exhaustively(text):
    """add, sub, neg, mul, inv and pow on codes against the int-tuple value ops,
    read through coords: every pair in F_9, F_25 and F_27, seeded pairs in
    F_729 and F_3125.  The exponents are b, b + q and -b for the code b."""
    field = parse_field(text)
    assert field._log is not None
    q, coords = field.q, field.coords
    _, _, add, sub, neg, mul, inv, pow_ = _value_ops(field.p, field.n, field.modulus)
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(f"codes:{text}")
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)] + [(0, 0), (0, 1), (1, 0), (q - 1, q - 1)]
    for a, b in pairs:
        ta, tb = coords(a), coords(b)
        assert coords(field.add(a, b)) == add(ta, tb), (a, b)
        assert coords(field.sub(a, b)) == sub(ta, tb), (a, b)
        assert coords(field.mul(a, b)) == mul(ta, tb), (a, b)
        assert coords(field.neg(a)) == neg(ta), a
        assert coords(field.pow(a, b)) == pow_(ta, b) and coords(field.pow(a, b + q)) == pow_(ta, b + q), (a, b)
        if a:
            inverse = field.inv(a)
            assert coords(inverse) == inv(ta) == RefElement(field, ta).inverse().coords, a
            assert field.pow(a, -b) == field.pow(inverse, b), (a, b)


@pytest.mark.parametrize(
    "text, route",
    [
        ("3^2", "x + c"),
        ("3^2/2,2,1", "x + c"),
        ("3^3", "x + c"),
        ("3^6", "x + c"),
        ("7^3", "c1*x + c0"),
        ("5^5", "c1*x + c0"),
        ("3^4/2,0,1,0,1", "general"),
    ],
)
def test_table_invariants(text, route):
    field = parse_field(text)
    p, q = field.p, field.q
    exp, log = field._exp, field._log
    assert len(exp) == 2 * (q - 1) and exp[q - 1 :] == exp[: q - 1]
    assert sorted(exp[: q - 1]) == list(range(1, q))
    assert len(log) == q and log[0] is None and all(log[v] == i for i, v in enumerate(exp[: q - 1]))
    # the generator's powers under the field's own modulus, by the int-tuple multiply
    slow_mul, coords = _value_ops(p, field.n, field.modulus)[5], field.coords
    g = exp[1]
    assert exp[0] == field.one_value
    assert all(slow_mul(coords(exp[i]), coords(g)) == coords(exp[i + 1]) for i in range(q - 1))
    code = field.code(g)
    assert {"x + c": p <= code < 2 * p, "c1*x + c0": 2 * p <= code < p * p, "general": code >= p * p}[route]
    zero = field.zero_value
    with pytest.raises(ZeroDivisionError):
        field.inv(zero)
    with pytest.raises(ZeroDivisionError):
        field.pow(zero, -1)
    assert field.pow(zero, 0) == field.one_value and field.pow(zero, 3) == zero


def test_no_primitive_element_is_an_internal_error(monkeypatch, cold_fields):
    """With every order test made to fail the build raises, not asserts, so -O keeps the check.

    The fields are cold, so FiniteField(3, 2) builds its tables rather than
    return the interned F_9, and so does the field with its own modulus."""
    monkeypatch.setattr(field_module, "_prime_divisors", lambda n: [1])
    for modulus in (None, (2, 2, 1)):
        with pytest.raises(InternalInconsistencyError, match="no primitive element"):
            FiniteField(3, 2, modulus)


def test_tables_follow_the_field_size():
    assert FiniteField(3, 2, (2, 2, 1))._exp != FiniteField(3, 2)._exp
    assert FiniteField(5, 5)._log is not None  # 3125 <= TABLE_LIMIT
    for field in (FiniteField(3), FiniteField(5, 6), FiniteField(3, 8)):
        assert field._exp is None and field._log is None
