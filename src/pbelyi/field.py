"""Exact arithmetic in F_{p^n} for odd primes p.

A field is described by (p, n, modulus).  The modulus is a monic irreducible
polynomial over F_p stored little-endian (constant term first).  For given
(p, n) the canonical modulus is the monic irreducible of degree n whose
coefficient vector, read as a base-p integer with higher powers more
significant, is smallest; that makes field construction reproducible with no
stored list of moduli.  That base-p integer of an element's coordinate
vector in the power basis is its code, the canonical element order.  The
field's ops act on values, and FieldElement is a view of one value.
Everything here is immutable and hashable, and no floating point is used
anywhere.

A field picks its arithmetic once, in FiniteField.__init__, and binds value
ops, the conversions between values, codes and coordinates, and a kernel on
trimmed value tuples (pmul, pdivmod, ppowmod) for Polynomial.  There are
three routes:

- F_p: the value is the code, an int in [0, p); the value ops are
  _value_ops on ints and the kernel is the F_p[x] kernel below.
- n > 1 with at most TABLE_LIMIT elements: the value is the code, an int in
  [0, q).  log/exp tables of a primitive element multiply, invert and power
  by lookup, and Zech's logarithms, built with them, add and subtract.  The
  build is one walk on codes by table lookups (_log_exp_tables), with no
  element multiply, no _value_ops and no F_p.
- n > 1 above TABLE_LIMIT: the value is the coordinate tuple; _value_ops
  multiplies as int-tuple polynomials and inverts by the one extended Euclid.

Both extension routes run the kernel as schoolbook loops (_poly_ops).

FiniteField(p, n) with no modulus is interned: while the canonical modulus
of (p, n) stays cached, every such call returns the one field built on it,
tables and embeddings (`embed` caches the image of each source generator on
its target) included.  `_canonical_modulus.cache_clear()` drops those
fields with the moduli, so a process that clears it builds every field
afresh.  A field with an explicit modulus, and so every pickled copy, is
built anew each time.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache, partial
from itertools import zip_longest
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import InternalInconsistencyError, PreconditionError, check_int

IntPoly = Tuple[int, ...]  # little-endian coefficients over F_p


# ---------------------------------------------------------------------------
# primality

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the 13 prime bases 2 .. 41; PreconditionError for an n they cannot decide
    and for an n that is no int (errors.check_int).

    They decide every n below psi_13 = 3,317,044,064,679,887,385,961,981, the least strong pseudoprime to
    all 13; the 12 to 37 pass psi_12 = 399,165,290,221 * 798,330,580,441 (Sorenson & Webster, 2017).
    """
    return _is_prime(check_int("n", n))


def _is_prime(n: int) -> bool:
    """is_prime on an n that is an int already."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    limit = 3317044064679887385961981  # psi_13
    if n >= limit:
        raise PreconditionError(f"cannot decide whether {n} is prime: the 13 bases decide only n below {limit}")
    return True


# ---------------------------------------------------------------------------
# int-tuple polynomials over F_p (little-endian, trailing zeros stripped): the
# F_p[x] kernel.  A prime field binds it as its pmul, pdivmod and ppowmod, so
# Polynomial over F_p multiplies, divides and powers modulo here on its value
# tuples; F_{p^n}, n > 1, multiplies its elements here above TABLE_LIMIT.
#
# Short operands go through schoolbook loops.  From MUL_CUTOFF coefficients a
# product is one bigint product (Kronecker substitution, von zur Gathen &
# Gerhard, Modern Computer Algebra, 8.4): each operand is packed into an int,
# one machine-word slot per coefficient, wide enough for (p - 1)^2 min(len a,
# len b), and the product's slots are read back mod p.  From DIV_CUTOFF a
# quotient is rev(a) rev(b)^-1 mod x^k, the inverse found by Newton iteration
# (ibid., 9.1).  When the slot would be wider than a machine word both stay
# schoolbook.  Over F_7 a degree-500 by degree-250 multiply takes 41 us against
# 8.2 ms by schoolbook, and their divmod 0.15 ms against 5.8 ms (Python 3.11,
# one core of a 2-CPU x86-64 host).

MUL_CUTOFF = 8  # the shorter factor's length from which _pmul packs
DIV_CUTOFF = 24  # the quotient's and divisor's length from which _pdivmod inverts
_SLOTS = [(array(code).itemsize * 8, code) for code in "BHIQ"]  # (bits, array typecode), narrow first


def _trim(values: Sequence, zero) -> Tuple:
    """values as a tuple without its trailing zeros: the one trim, for ints and element values alike."""
    i = len(values)
    while i and values[i - 1] == zero:
        i -= 1
    return tuple(values[:i])


def _slot(bound: int):
    """(bits, typecode) of the narrowest machine slot above bound, or None."""
    for bits, code in _SLOTS:
        if bound >> bits == 0:
            return bits, code
    return None


def _pmul(p: int, a: IntPoly, b: IntPoly) -> IntPoly:
    """a*b, trimmed: schoolbook below MUL_CUTOFF coefficients in the shorter factor, else packed."""
    la, lb = len(a), len(b)
    n = min(la, lb)
    slot = _slot((p - 1) ** 2 * n) if n >= MUL_CUTOFF else None
    if slot is None:
        if not n:
            return ()
        out = [0] * (la + lb - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] = (out[j] + ca * cb) % p
        return _trim(out, 0)
    bits, code = slot
    order = sys.byteorder
    pa = int.from_bytes(array(code, a).tobytes(), order)
    prod = pa * pa if a is b else pa * int.from_bytes(array(code, b).tobytes(), order)
    out = array(code)
    out.frombytes(prod.to_bytes((la + lb - 1) * bits // 8, order))
    return _trim([c % p for c in out], 0)


def _mul_low(p: int, a: Sequence[int], b: Sequence[int], k: int) -> List[int]:
    """The k lowest coefficients of a*b mod p, zeros included."""
    out = list(_pmul(p, a[:k], b[:k])[:k])
    return out + [0] * (k - len(out))


def _inverse_series(p: int, f: Sequence[int], k: int) -> List[int]:
    """g with f*g = 1 mod x^k, for f[0] nonzero mod p.

    The first MUL_CUTOFF coefficients come one by one from g_i = -(f_1 g_(i-1)
    + ... + f_i g_0) / f_0; then each Newton step doubles the precision n
    with two multiplies of length n: if f*g = 1 + x^n e mod x^2n, then
    f*(g - x^n g e) = 1 mod x^2n.
    """
    inv0 = pow(f[0], -1, p)
    n = min(k, MUL_CUTOFF)
    f = list(f[:k]) + [0] * (k - len(f))
    g = [inv0]
    for i in range(1, n):
        g.append(-sum(map(operator.mul, f[i:0:-1], g)) * inv0 % p)
    while n < k:
        m = min(2 * n, k)
        e = _mul_low(p, f, g, m)[n:]
        g += [-c % p for c in _mul_low(p, g, e, m - n)]
        n = m
    return g


def _pdivmod(p: int, a: IntPoly, b: IntPoly, binv: Sequence[int] = None) -> Tuple[IntPoly, IntPoly]:
    """(quotient, remainder) of a by b, both trimmed.

    binv, when given, is _inverse_series(p, b reversed, k) for some k; it
    serves every a whose quotient has at most k coefficients.  Long
    division takes mod p of a remainder coefficient only when it reads it.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    k = len(a) - db  # the quotient's length
    if k <= 0:
        return (), a
    if binv is None or len(binv) < k:
        if min(k, db + 1) < DIV_CUTOFF or _slot((p - 1) ** 2 * k) is None:
            inv_lead = pow(b[-1], -1, p)
            low = b[:db]
            rem = list(a)
            quo = [0] * k
            for i in range(k - 1, -1, -1):
                c = rem[i + db] % p
                if c:
                    c = c * inv_lead % p
                    quo[i] = c
                    for j, cb in enumerate(low, i):
                        rem[j] -= c * cb
            del rem[db:]
            for j in range(db):
                rem[j] %= p
            return tuple(quo), _trim(rem, 0)
        binv = _inverse_series(p, b[::-1], k)
    quo = _mul_low(p, a[: -k - 1 : -1], binv, k)[::-1]
    low = _mul_low(p, b, quo, db)
    return tuple(quo), _trim([(x - y) % p for x, y in zip(a, low)], 0)


def _ppowmod(p: int, a: IntPoly, e: int, m: IntPoly) -> IntPoly:
    """a**e mod m for e >= 0 and m nonzero, by _pow_by_squaring with a reducing multiply.

    The inverse of m reversed is found once, for every reduction of a
    product of two remainders; with it a quotient costs two multiplies, which
    pays from about half DIV_CUTOFF.
    """
    k = len(m) - 1  # the longest quotient of such a product
    binv = None
    if 2 * k >= DIV_CUTOFF and _slot((p - 1) ** 2 * k) is not None:
        binv = _inverse_series(p, m[::-1], k)
    mulmod = lambda x, y: _pdivmod(p, _pmul(p, x, y), m, binv)[1]
    return _pow_by_squaring(mulmod, _pdivmod(p, (1,), m)[1], _pdivmod(p, a, m)[1], e)


def _ext_gcd(fld: "FiniteField", a: Tuple, b: Tuple) -> Tuple[Tuple, Tuple]:
    """(g, u) with u*a = g mod b and g monic, on trimmed value tuples of fld; a and b are not both zero.

    The one extended Euclid: Polynomial.inverse_mod runs it over any field,
    and F_{p^n} above TABLE_LIMIT inverts its elements with it over F_p.
    """
    zero, sub, pmul, pdivmod = fld.zero_value, fld.sub, fld.pmul, fld.pdivmod
    r0, r1, s0, s1 = a, b, (fld.one_value,), ()
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([sub(x, y) for x, y in zip_longest(s0, pmul(q, s1), fillvalue=zero)], zero)
    scale = (fld.inv(r0[-1]),)
    return pmul(r0, scale), pmul(s0, scale)


def _euclid(fld: "FiniteField", a: Tuple, b: Tuple) -> Tuple:
    """The one Euclid, on trimmed value tuples of fld: the last nonzero remainder, not made monic."""
    pdivmod = fld.pdivmod
    while b:
        a, b = b, pdivmod(a, b)[1]
    return a


def _derivative(fld: "FiniteField", a: Tuple) -> Tuple:
    """The formal derivative of a trimmed value tuple of fld; the prime-field constant i has code i mod p."""
    mul, from_code, p = fld.mul, fld.from_code, fld.p
    return _trim([mul(c, from_code(i % p)) for i, c in enumerate(a) if i], fld.zero_value)


def _relation(fld: "FiniteField", rows: List, vector: List) -> Optional[Tuple]:
    """Reduce vector, a list of values of fld, against echelon rows: None if it is independent, else its relation.

    The one elimination.  rows starts empty and keeps (pivot, row, comb) per independent vector v_i fed to
    it, row 1 at its pivot and 0 at the pivots before it and comb its combination of the v_i.  An independent
    vector joins rows; a dependent one returns the (c_0, .., c_(k-1), 1) with sum c_i v_i + vector = 0.
    """
    zero, sub, mul = fld.zero_value, fld.sub, fld.mul
    comb = [zero] * len(rows) + [fld.one_value]
    for pivot, prow, pcomb in rows:
        a = vector[pivot]
        if a != zero:
            vector = [sub(x, mul(a, y)) for x, y in zip(vector, prow)]
            comb[:len(pcomb)] = [sub(x, mul(a, y)) for x, y in zip(comb, pcomb)]
    pivot = next((i for i, x in enumerate(vector) if x != zero), None)
    if pivot is None:
        return tuple(comb)
    scale = fld.inv(vector[pivot])
    rows.append((pivot, [mul(scale, x) for x in vector], [mul(scale, x) for x in comb]))
    return None


def _prime_divisors(n: int) -> List[int]:
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _int_root(x: int, n: int) -> int:
    """The integer part of the n-th root of x >= 0, by Newton's method from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> Tuple[int, int]:
    """(p, n) with q = p**n for an odd prime p; PreconditionError otherwise.

    The largest n with q an exact n-th power is the exponent, so no
    trial division is needed.
    """
    if check_int("odd prime power q", q, 3) % 2:
        r, n = _largest_power(q)
        if _is_prime(r):
            return r, n
    raise PreconditionError("q must be an odd prime power, got %r" % (q,))


def _largest_power(q: int) -> Tuple[int, int]:
    """(r, n) with q = r**n for q >= 2 and n as large as it goes."""
    for n in range(q.bit_length(), 0, -1):
        r = _int_root(q, n)
        if r ** n == q:
            return r, n


def digits(k: int, base: int, count: int) -> List[int]:
    """The count lowest base-`base` digits of k (mod base**count), least significant first."""
    out = []
    for _ in range(count):
        k, r = divmod(k, base)
        out.append(r)
    return out


def _irreducible_binomials(p: int, n: int) -> bool:
    """Whether some x^n + c is irreducible over F_p, n >= 2: exactly when every prime r | n divides p - 1, and
    p = 1 mod 4 when 4 | n (Capelli; Lidl & Niederreiter, Finite Fields, Thm 3.75, with -c a generator)."""
    return all((p - 1) % r == 0 for r in _prime_divisors(n)) and (n % 4 != 0 or p % 4 == 1)


def _search_modulus(p: int, n: int) -> IntPoly:
    """The first monic irreducible of degree n over F_p, in the order of the codes of its lower coefficients.

    When no binomial x^n + c, code c < p, is irreducible the search starts
    at code p.  A candidate with a root in F_p is reducible and is skipped;
    below degree 4 a reducible candidate has a linear factor, so the first
    one left is the modulus, and from degree 4 Ben-Or's test decides the
    rest.  The first stage of Ben-Or's test, gcd(f, x^p - x), is itself a
    root screen in about n^2 log2 p steps.  While p(n + 1) Horner steps
    (_code_of at each a) cost no more, the search evaluates instead, which
    spares most candidates the test over small p.
    """
    if n == 1:
        return (0, 1)
    from .factor import is_irreducible
    from .poly import Polynomial

    prime_field = FiniteField(p)
    by_values = p <= n * n * p.bit_length()
    for k in range(0 if _irreducible_binomials(p, n) else p, p ** n):
        coeffs = digits(k, p, n) + [1]
        if by_values:
            if any(not _code_of(coeffs, a) % p for a in range(p)):
                continue
            if n < 4:
                return tuple(coeffs)
        if is_irreducible(Polynomial(prime_field, coeffs)):
            return tuple(coeffs)
    raise PreconditionError(f"no irreducible polynomial of degree {n} over F_{p}")


class _ModulusCache:
    """_canonical_modulus(p, n): the canonical modulus, searched once per (p, n).

    The search sits in an lru_cache, whose cache_info counts the searches.
    `fields` interns, per (p, n), the FiniteField built on the cached
    modulus; cache_clear empties both, so no field outlives its modulus.
    """

    def __init__(self, search):
        self._search = lru_cache(maxsize=None)(search)
        self.cache_info = self._search.cache_info
        self.fields = {}

    def __call__(self, p: int, n: int) -> IntPoly:
        return self._search(p, n)

    def cache_clear(self) -> None:
        self._search.cache_clear()
        self.fields.clear()


_canonical_modulus = _ModulusCache(_search_modulus)


# ---------------------------------------------------------------------------
# element values and polynomials on them, one route per field.  The bound ops
# capture values and tables, never the field, so a dropped field is freed by
# its reference count; partial binds the F_p kernel with no Python frame.


def _value_ops(p: int, n: int, modulus: IntPoly):
    """zero, one, add, sub, neg, mul, inv and pow on ints for n == 1, else on coordinate tuples, by arithmetic.

    FiniteField builds them for F_p and above TABLE_LIMIT only; a tabled
    field binds _table_ops alone, and builds no F_p.  inv needs a nonzero
    value and pow a non-negative exponent.
    """
    if n == 1:
        add, sub = (lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p)
        mul = lambda a, b: a * b % p
        inv, pow_ = (lambda a: pow(a, p - 2, p)), (lambda a, e: pow(a, e, p))
        return 0, 1, add, sub, (lambda a: -a % p), mul, inv, pow_

    def mul(a, b):
        prod = _pmul(p, _trim(a, 0), _trim(b, 0))
        if len(prod) > n:
            prod = _pdivmod(p, prod, modulus)[1]
        return prod + (0,) * (n - len(prod))

    prime = FiniteField(p)

    def inv(a):
        u = _ext_gcd(prime, _trim(a, 0), modulus)[1]  # the gcd is 1: the modulus is irreducible
        return u + (0,) * (n - len(u))

    one = (1,) + (0,) * (n - 1)
    return (
        (0,) * n,
        one,
        lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)]),
        lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)]),
        lambda a: tuple([-x % p for x in a]),
        mul,
        inv,
        partial(_pow_by_squaring, mul, one),
    )


def _pow_by_squaring(mul, one, a, e: int):
    """a**e for e >= 0 with the given mul: the one square-and-multiply loop.

    It squares e.bit_length() - 1 times and calls mul(result, power) once per set bit.
    """
    result = one
    while e > 0:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _code_of(coords: Sequence[int], p: int) -> int:
    """The base-p value of a coordinate vector, higher coordinates more significant."""
    k = 0
    for c in reversed(coords):
        k = k * p + c
    return k


def _coordinates(x: Iterable[int], p: int, n: int) -> List[int]:
    """The n coordinates mod p of a coordinate sequence, zeros appended; PreconditionError when it is longer."""
    coords = [int(c) % p for c in x]
    if len(coords) > n:
        raise PreconditionError(f"coordinate vector of length {len(coords)} exceeds degree {n}")
    return coords + [0] * (n - len(coords))


def _digit_table(base: int, count: int, zero, weight, add=operator.add) -> list:
    """T with T[d_0 + d_1 base + ... + d_(count-1) base^(count-1)] = zero + weight(0, d_0) + ... by add.

    Each digit position is one list comprehension over the table so far, so T costs about base**count adds.
    """
    table = [zero]
    for i in range(count):
        table = [add(x, w) for w in [weight(i, d) for d in range(base)] for x in table]
    return table


def _log_exp_tables(p: int, n: int, modulus: IntPoly):
    """(exp, log, zech, coords) for F_p[x]/(modulus), n > 1: four lists on codes.

    exp lists the codes of the powers g^0 .. g^(q-2) of a primitive element
    g twice over, so a sum of two logs indexes it directly; log[c] is the
    exponent of the element of code c, None for c = 0.  zech lists Zech's
    logarithms, Z[k] = log(1 + g^k), so that g^a + g^b = g^(a + Z[b - a])
    for b - a taken mod q - 1 (Lidl & Niederreiter, Finite Fields, 9.3).
    Adding 1 raises the lowest base-p digit of a code c by one mod p, so
    1 + g^k has code c + 1, or c - (p - 1) when that digit of the code c of
    g^k is p - 1.  Z is None at k = (q - 1)/2, where 1 + g^k = 0 has no log.
    coords[c] is the coordinate tuple of code c.

    g is the first element by code, past the constants, of order q - 1, and
    exp is its walk on codes, which is also the order test: a candidate is g
    when its walk from 1 first returns to 1 after q - 1 steps.  With h =
    ceil(n/2) a step splits a code c = lo + p^h hi and looks up the
    coordinate vectors of lo*g and x^h hi*g, packed as integers in base 2p - 1
    so that they add with no carry; two more lookups, on the low h and the
    high n - h packed digits, read the sum back as a code mod p.  Every table
    is built digit by digit (_digit_table), so the build multiplies no
    elements.  A linear candidate c1 x + c0 is first screened by its norm
    (-c1)^n f(-c0/c1): g^((q-1)/l) = N(g)^((p-1)/l) for each prime l | p - 1,
    so g's norm generates F_p^*.
    """
    q, h, base = p ** n, (n + 1) // 2, 2 * p - 1
    split, half = p ** h, base ** h

    def halves(radix):  # the low h and the high n - h packed digits, each below 2p - 1, read mod p in radix
        return [_digit_table(base, k, 0, lambda i, d: d % p * radix ** (j + i)) for j, k in ((0, h), (h, n - h))]

    low, high = halves(p)  # to a code
    packed_low, packed_high = halves(base)  # packed again
    fold = lambda s: packed_low[s % half] + packed_high[s // half]
    norm_cofactors = [(p - 1) // r for r in _prime_divisors(p - 1)]
    for k in range(p, q):
        g = digits(k, p, n)
        if k < p * p:
            a = -g[0] * pow(g[1], -1, p) % p
            norm = pow(-g[1], n, p) * _code_of(modulus, a) % p
            if any(pow(norm, e, p) == 1 for e in norm_cofactors):
                continue
        rows = [g]  # the coordinates of x^i g
        for _ in range(n - 1):
            top = rows[-1][-1]
            rows.append([(s - top * m) % p for s, m in zip([0] + rows[-1][:-1], modulus)])
        times_lo, times_hi = [  # packed coordinates of lo*g and of x^h hi*g
            _digit_table(p, len(part), 0, lambda i, d: _code_of([d * c % p for c in part[i]], base),
                         lambda x, w: fold(x + w))
            for part in (rows[:h], rows[h:])
        ]
        exp, c = [], 1
        for _ in range(q - 1):
            exp.append(c)
            s = times_lo[c % split] + times_hi[c // split]
            c = low[s % half] + high[s // half]
            if c == 1:
                break
        if c == 1 and len(exp) == q - 1:
            break
    else:
        raise InternalInconsistencyError(f"no primitive element in F_{p}^{n} modulo {modulus}")
    log = [None] * q
    for i, c in enumerate(exp):
        log[c] = i
    if log.count(None) != 1:
        raise InternalInconsistencyError(f"the powers of {tuple(g)} in F_{p}^{n} repeat before q - 1")
    zech = [log[c + 1] if c % p != p - 1 else log[c - p + 1] for c in exp]
    return exp + exp, log, zech, _digit_table(p, n, (), lambda i, d: (d,))


def _table_ops(exp, log, zech):
    """zero, one, add, sub, neg, mul, inv and pow on a tabled field's codes, by lookup in its (exp, log, zech)."""
    order = len(log) - 1  # q - 1
    neg = [0] + [exp[k + order // 2] for k in log[1:]]  # -1 = g^((q-1)/2)

    def add(a, b):
        if a and b:
            la = log[a]
            z = zech[log[b] - la]  # a negative index wraps: it is taken mod q - 1
            return 0 if z is None else exp[la + z]
        return a or b

    sub = lambda a, b: add(a, neg[b])

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def pow_(a, e):
        if a:
            return exp[log[a] * e % order]
        return 0 if e else 1

    return 0, 1, add, sub, neg.__getitem__, mul, (lambda a: exp[order - log[a]]), pow_


def _poly_ops(zero, one, add, sub, mul, inv):
    """pmul, pdivmod and ppowmod on trimmed value tuples of F_{p^n}, n > 1, by schoolbook loops on its value ops;
    a zero divisor or modulus raises ZeroDivisionError.  F_p binds the F_p[x] kernel instead."""

    def pmul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == zero:
                continue
            for j, cb in enumerate(b):
                if cb != zero:
                    out[i + j] = add(out[i + j], mul(ca, cb))
        return _trim(out, zero)

    def pdivmod(a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = inv(b[-1])
        rem = list(a)
        db = len(b) - 1
        quo = [zero] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c != zero:
                qc = mul(c, inv_lead)
                quo[i - db] = qc
                for j, cb in enumerate(b):
                    rem[i - db + j] = sub(rem[i - db + j], mul(qc, cb))
        return tuple(quo), _trim(rem[:db], zero)

    def ppowmod(a, e, m):
        mulmod = lambda x, y: pdivmod(pmul(x, y), m)[1]
        return _pow_by_squaring(mulmod, pdivmod((one,), m)[1], pdivmod(a, m)[1], e)

    return pmul, pdivmod, ppowmod


TABLE_LIMIT = 4096  # the largest q whose F_{p^n}, n > 1, gets log/exp tables


class FiniteField:
    """The field with p**n elements, p an odd prime.

    Bound per route when the field is made (see the module docstring):
    zero_value and one_value, the value ops add, sub, neg and mul (inv and
    pow below check their arguments), the kernel pmul, pdivmod and ppowmod,
    and three conversions: code(a), the code of a value; from_code(k), the
    value of code k mod q; coords(a), the coordinate tuple of a value; and
    _from_raw, which value_of applies to an int or a coordinate sequence.  On
    a tabled field _exp, _log and _zech are the tables from _log_exp_tables;
    otherwise all three are None.  _embeddings holds the cached images of
    source generators under `embed`.
    """

    __slots__ = (
        "p", "n", "modulus", "_hash", "zero_value", "one_value", "add", "sub", "neg", "mul", "_inv", "_pow",
        "pmul", "pdivmod", "ppowmod", "code", "from_code", "coords", "_from_raw", "_exp", "_log", "_zech",
        "_embeddings",
    )

    def __new__(cls, p: int, n: int = 1, modulus: Sequence[int] = None):
        if not _is_prime(check_int("p", p)):
            raise PreconditionError(f"characteristic must be prime, got {p}")
        if p == 2:
            raise PreconditionError("characteristic 2 is not supported")
        check_int("n", n, 1)
        if modulus is None:
            interned = _canonical_modulus.fields.get((p, n))
            if interned is not None:
                return interned
        return super().__new__(cls)

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] = None):
        if modulus is None and _canonical_modulus.fields.get((p, n)) is self:
            return  # interned, built already
        self.p = p
        self.n = n
        if modulus is None:
            self.modulus = _canonical_modulus(p, n)
        else:
            from .factor import is_irreducible
            from .poly import Polynomial

            f = Polynomial(FiniteField(p), modulus)
            if f.degree != n or not f.is_monic:
                raise PreconditionError(f"modulus must be monic of degree {n}")
            if not is_irreducible(f):
                raise PreconditionError("modulus is reducible over the prime field")
            self.modulus = f.values
        self._hash = hash((self.p, self.n, self.modulus))
        self._exp = self._log = self._zech = None
        self._embeddings = {}  # (p, n, modulus) of a source -> the image value of its generator
        q = p ** n
        if q <= TABLE_LIMIT or n == 1:  # the value is the code
            self.code, self.from_code = operator.index, q.__rmod__  # a -> a and k -> k % q, with no Python frame
            self._from_raw = lambda x: x % p if isinstance(x, int) else _code_of(_coordinates(x, p, n), p)
            if n == 1:
                zero, one, add, sub, neg, mul, inv, pow_ = _value_ops(p, n, self.modulus)
                self.coords = lambda a: (a,)
            else:
                self._exp, self._log, self._zech, coords = _log_exp_tables(p, n, self.modulus)
                zero, one, add, sub, neg, mul, inv, pow_ = _table_ops(self._exp, self._log, self._zech)
                self.coords = coords.__getitem__
        else:  # the value is the coordinate tuple
            zero, one, add, sub, neg, mul, inv, pow_ = _value_ops(p, n, self.modulus)
            self.code, self.coords = (lambda a: _code_of(a, p)), tuple
            self.from_code = lambda k: tuple(digits(k, p, n))
            self._from_raw = lambda x: tuple(_coordinates((x,) if isinstance(x, int) else x, p, n))
        self.zero_value, self.one_value, self.add, self.sub, self.neg = zero, one, add, sub, neg
        self.mul, self._inv, self._pow = mul, inv, pow_
        if n == 1:  # the F_p[x] kernel
            self.pmul, self.pdivmod, self.ppowmod = partial(_pmul, p), partial(_pdivmod, p), partial(_ppowmod, p)
        else:
            self.pmul, self.pdivmod, self.ppowmod = _poly_ops(zero, one, add, sub, mul, inv)
        if modulus is None:
            _canonical_modulus.fields[p, n] = self

    # -- descriptor protocol

    @property
    def q(self) -> int:
        return self.p ** self.n

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a copy is rebuilt from its description, modulus check and tables included
        return FiniteField, (self.p, self.n, self.modulus)

    def __repr__(self) -> str:
        return f"FiniteField({self})"

    def __str__(self) -> str:
        base = str(self.p) if self.n == 1 else f"{self.p}^{self.n}"
        if self.modulus == _canonical_modulus(self.p, self.n):
            return base
        return base + "/" + ",".join(str(c) for c in self.modulus)

    # -- values

    def inv(self, a):
        """The inverse of a nonzero value."""
        if a == self.zero_value:
            raise ZeroDivisionError("inverse of zero")
        return self._inv(a)

    def pow(self, a, e: int):
        """a**e for a value a; a negative e needs a nonzero a."""
        if e < 0:
            a, e = self.inv(a), -e
        return self._pow(a, e)

    def value_of(self, x: Union[int, "FieldElement", Iterable[int]]):
        """The value of an element of this field, an int or a coordinate sequence.

        An int is always a prime-field constant, never a code, also where
        values are codes: from_code reads a code.
        """
        if isinstance(x, FieldElement):
            if x.field != self:
                raise PreconditionError("element belongs to a different field")
            return x.value
        return self._from_raw(x)

    # -- element construction

    def element(self, value: Union[int, "FieldElement", Iterable[int]]) -> "FieldElement":
        if isinstance(value, FieldElement) and value.field == self:
            return value
        return FieldElement(self, self.value_of(value))

    __call__ = element

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_value)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_value)

    @property
    def gen(self) -> "FieldElement":
        """The class of x modulo the modulus (zero in a prime field)."""
        return self.zero if self.n == 1 else self.element((0, 1))

    def elements(self) -> Iterator["FieldElement"]:
        """All elements, ordered by base-p value of the coordinate vector."""
        for k in range(self.q):
            yield self.from_int_value(k)

    def from_int_value(self, k: int) -> "FieldElement":
        """The element whose coordinate vector has base-p value k (mod q)."""
        return FieldElement(self, self.from_code(k))


class FieldElement:
    """A view of one element value of a FiniteField."""

    __slots__ = ("field", "value")

    def __init__(self, field: FiniteField, value):
        self.field = field
        self.value = value

    # -- basic protocol

    @property
    def coords(self) -> Tuple[int, ...]:
        return self.field.coords(self.value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"<{self} in F({self.field})>"

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __bool__(self) -> bool:
        return self.value != self.field.zero_value

    @property
    def is_zero(self) -> bool:
        return self.value == self.field.zero_value

    @property
    def int_value(self) -> int:
        """Base-p value of the coordinate vector; the canonical element order."""
        return self.field.code(self.value)

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise PreconditionError("elements of different fields")

    def __lt__(self, other: "FieldElement") -> bool:
        self._check(other)
        return self.int_value < other.int_value

    def __le__(self, other: "FieldElement") -> bool:
        self._check(other)
        return self.int_value <= other.int_value

    # -- arithmetic, on the field's value ops

    def __add__(self, other):
        fld = self.field
        return FieldElement(fld, fld.add(self.value, fld.value_of(other)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __sub__(self, other):
        fld = self.field
        return FieldElement(fld, fld.sub(self.value, fld.value_of(other)))

    def __rsub__(self, other):
        return self.field.element(other) - self

    def __mul__(self, other):
        fld = self.field
        return FieldElement(fld, fld.mul(self.value, fld.value_of(other)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def __truediv__(self, other):
        other = self.field.element(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.value, e))


# ---------------------------------------------------------------------------
# Frobenius and Galois orbits


def frobenius(a: FieldElement, iterations: int = 1) -> FieldElement:
    """Apply x -> x**p the given number of times: a**(p**iterations)."""
    if iterations < 0:
        raise PreconditionError("iteration count must be non-negative")
    return a ** (a.field.p ** iterations)


def galois_orbit(a: FieldElement, base: FiniteField) -> Tuple[FieldElement, ...]:
    """Orbit of a under x -> x**q, q = |base|; base must sit inside a's field."""
    if base.p != a.field.p:
        raise PreconditionError("base field has a different characteristic")
    if a.field.n % base.n != 0:
        raise PreconditionError(
            f"F_{base.p}^{base.n} is not a subfield of F_{a.field.p}^{a.field.n}"
        )
    orbit = [a]
    current = frobenius(a, base.n)
    while current != a:
        orbit.append(current)
        current = frobenius(current, base.n)
    return tuple(sorted(orbit, key=lambda e: e.int_value))


# ---------------------------------------------------------------------------
# subfield embeddings


class EmbeddingMap:
    """A field homomorphism F_{p^a} -> F_{p^b} fixed by its generator image."""

    __slots__ = ("source", "target", "image_of_generator", "_powers")

    def __init__(self, source: FiniteField, target: FiniteField, image_of_generator: FieldElement):
        self.source = source
        self.target = target
        self.image_of_generator = image_of_generator
        powers = [target.one]
        for _ in range(source.n - 1):
            powers.append(powers[-1] * image_of_generator)
        self._powers = tuple(w.value for w in powers)

    def __call__(self, a: FieldElement) -> FieldElement:
        if a.field != self.source:
            raise PreconditionError("element is not in the embedding's source field")
        return FieldElement(self.target, self.image_value(a.value))

    def image_value(self, a):
        """The image of a source value, as a target value: sum a_i * gen^i over F_p, by the target's value ops.

        A constant c of F_p has code c in every field, so a_0 * gen^0 is the
        target value of code a_0.
        """
        target = self.target
        add, mul, from_code = target.add, target.mul, target.from_code
        coords = self.source.coords(a)
        acc = from_code(coords[0])
        for c, w in zip(coords[1:], self._powers[1:]):
            if c:
                acc = add(acc, mul(from_code(c), w))
        return acc

    def __repr__(self) -> str:
        return f"EmbeddingMap({self.source} -> {self.target})"

    def compose(self, inner: "EmbeddingMap") -> "EmbeddingMap":
        """The embedding self . inner along a tower."""
        if inner.target != self.source:
            raise PreconditionError("embeddings do not chain")
        return EmbeddingMap(inner.source, self.target, self(inner.image_of_generator))

    def section(self, a: FieldElement) -> FieldElement:
        """Pull a back to the source field; PreconditionError when it is not in the image.

        The F_p-coordinates of the independent gen^0 .. gen^(n-1), then of a, go through _relation: a is
        in the image exactly when they relate, and minus its relation's first n entries are its coordinates.
        """
        if a.field != self.target:
            raise PreconditionError("element is not in the embedding's target field")
        prime, coords, rows = FiniteField(self.source.p), self.target.coords, []
        for w in self._powers:
            _relation(prime, rows, list(coords(w)))
        rel = _relation(prime, rows, list(a.coords))
        if rel is not None:
            out = self.source.element([-c for c in rel[:-1]])  # element reads ints mod p
            if self(out) == a:
                return out
        raise PreconditionError("element does not descend to the source field")


def embed(source: FiniteField, target: FiniteField) -> EmbeddingMap:
    """Deterministic embedding: the generator maps to the lexicographically
    smallest root (by coordinate sequence) of the source modulus in target.

    The image is found once per target and source description and cached on
    the target as a value, not as a map, so the target refers to no field.
    """
    if source.p != target.p:
        raise PreconditionError("fields have different characteristics")
    if target.n % source.n != 0:
        raise PreconditionError(
            f"degree {source.n} does not divide {target.n}; no embedding exists"
        )
    if source.n == 1:
        return EmbeddingMap(source, target, target.zero)
    if source == target:
        return EmbeddingMap(source, target, target.gen)
    key = (source.p, source.n, source.modulus)
    image = target._embeddings.get(key)
    if image is None:
        from .poly import Polynomial
        from .factor import split_root

        # the source modulus splits in target into one orbit under x -> x**p
        orbit = [split_root(Polynomial(target, source.modulus))]
        for _ in range(source.n - 1):
            orbit.append(frobenius(orbit[-1]))
        image = target._embeddings[key] = min(orbit, key=lambda e: e.coords).value
    return EmbeddingMap(source, target, FieldElement(target, image))


# ---------------------------------------------------------------------------
# text formats: fields "p^n" or "p^n/c0,c1,...", elements "c0,c1,..."


def parse_field(text: str) -> FiniteField:
    """A field "p^n", or "p^n/c0,...,cn" with modulus coordinates in [0, p) and cn = 1."""
    text = original = text.strip()
    mod = None
    try:
        if "/" in text:
            text, modtext = text.split("/", 1)
            mod = [int(c) for c in modtext.split(",")]
        if "^" in text:
            p_str, n_str = text.split("^", 1)
            p, n = int(p_str), int(n_str)
        else:
            p, n = int(text), 1
    except ValueError:
        raise PreconditionError(f"field {original!r} is not p^n or p^n/c0,...,cn in integers") from None
    if "^" not in text and p >= 3 and p % 2 and not _is_prime(p):
        r, k = _largest_power(p)
        if k > 1 and _is_prime(r):
            raise PreconditionError(f"characteristic must be prime, got {p}; write {p} as {r}^{k}")
    if mod is not None and (mod[-1] != 1 or any(not 0 <= c < p for c in mod)):
        # FiniteField rejects every other count of coordinates by the degree
        raise PreconditionError(f"modulus {modtext!r} must have coordinates in [0, {p}) and end in 1")
    return FiniteField(p, n, mod)


def parse_element(field: FiniteField, text: str) -> FieldElement:
    text = text.strip()
    try:
        coords = [int(c) for c in text.split(",")]
    except ValueError:
        raise PreconditionError(f"element {text!r} is not a list of integers") from None
    if any(not 0 <= c < field.p for c in coords):
        raise PreconditionError(f"element {text!r} has a coordinate outside [0, {field.p})")
    return field.element(coords)
