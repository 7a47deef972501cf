"""Helpers that only the tests call, kept here as oracles: each is the plain
reading of its definition, independent of the library code it checks."""

from fractions import Fraction
from math import factorial

from pbelyi.counting import curve_points
from pbelyi.errors import InternalInconsistencyError, PreconditionError
from pbelyi.factor import is_irreducible, pth_root, squarefree_decomposition
from pbelyi.field import FiniteField, _code_of, _pow_by_squaring, _prime_divisors, _value_ops, digits
from pbelyi.poly import Polynomial
from pbelyi.ramification import analyze
from pbelyi.ratmap import P1Point, RationalMap, wronskian


def multiplicity(f: Polynomial, g: Polynomial) -> int:
    """The largest m with g**m dividing f, by repeated division, for g of positive degree."""
    if f.is_zero:
        raise PreconditionError("the zero polynomial is divisible by every power")
    if f._coerce(g).degree < 1:
        raise PreconditionError("multiplicity needs a divisor of positive degree, got %s" % g)
    count = 0
    quo, rem = divmod(f, g)
    while rem.is_zero:
        count += 1
        quo, rem = divmod(quo, g)
    return count


def root_multiplicity(f: Polynomial, r) -> int:
    """Multiplicity of x = r as a root of f."""
    return multiplicity(f, Polynomial(f.field, [-f.field.element(r), 1]))


def conjugate_by_reciprocal(f: RationalMap) -> RationalMap:
    """The map f(1/x), which moves the behaviour at infinity to 0."""
    m = max(f.num.degree, f.den.degree)
    return RationalMap(f.num.reverse(m), f.den.reverse(m))


def is_separable(f: RationalMap) -> bool:
    if f.is_constant:
        raise PreconditionError("separability is undefined for constant maps")
    return not wronskian(f).is_zero


def discriminant_degree(f: RationalMap) -> int:
    """Sum of orbit size times (index - 1) over all ramification orbits."""
    return sum(o.orbit_size * (o.index - 1) for o in analyze(f).points)


def squarefree_part(f: Polynomial) -> Polynomial:
    """The radical: product of the distinct monic irreducible factors."""
    out = Polynomial.one(f.field)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out


def musser_squarefree(f: Polynomial):
    """Musser's squarefree decomposition: one gcd and two divisions of the cofactor per multiplicity.

    The loop that factor.squarefree_decomposition ran before Yun's; the
    same sorted list of (monic part, multiplicity).
    """
    if f.is_zero:
        raise PreconditionError("cannot decompose the zero polynomial")
    f = f.monic()
    if f.is_constant:
        return []
    fp = f.derivative()
    if fp.is_zero:
        return [(g, m * f.field.p) for g, m in musser_squarefree(pth_root(f))]
    out = []
    t = f.gcd(fp)
    v = f // t
    i = 1
    while v.degree > 0:
        w = t.gcd(v)
        part = v // w
        if part.degree > 0:
            out.append((part.monic(), i))
        v = w
        t = t // w
        i += 1
    if t.degree > 0:
        out.extend((g, m * f.field.p) for g, m in musser_squarefree(pth_root(t)))
    out.sort(key=lambda gm: (gm[1], gm[0].sort_key()))
    return out


def branch_poly_by_conjugates(f: RationalMap, g: Polynomial) -> Polynomial:
    """The minimal polynomial of beta = N/D in K = F_q[x]/(g) as prod (y - beta^(q^j)) over its conjugates.

    For g irreducible and prime to D; the product's coefficients lie in F_q.
    """
    base = f.field
    zero = Polynomial(base)
    beta = (f.num % g) * f.den.inverse_mod(g) % g
    conjugates = [beta]
    for _ in range(g.degree - 1):
        nxt = conjugates[-1].powmod(base.q, g)
        if nxt == beta:
            break
        conjugates.append(nxt)
    coeffs = [Polynomial.one(base)]  # constant term first
    for b in conjugates:
        coeffs = [(s - b * c) % g for s, c in zip([zero] + coeffs, coeffs + [zero])]
    if any(c.degree > 0 for c in coeffs):
        raise PreconditionError("the conjugate product does not descend to the base field")
    return Polynomial(base, [c.coeff(0) for c in coeffs])


def search_modulus(p: int, n: int, start: int = 0):
    """The first monic irreducible of degree n over F_p in code order from start, as a value tuple, testing
    every code."""
    if n == 1:
        return (0, 1)
    for k in range(start, p ** n):
        f = Polynomial(FiniteField(p), digits(k, p, n) + [1])
        if is_irreducible(f):
            return f.values
    raise PreconditionError(f"no irreducible polynomial of degree {n} over F_{p}")


def search_modulus_screened(p: int, n: int):
    """The modulus search that field._search_modulus ran before its root screen: it skips a candidate with
    a root at 0, 1 or -1 (a zero constant term, coefficient sum or alternating sum mod p) and runs Ben-Or's
    test on every other."""
    if n == 1:
        return (0, 1)
    for k in range(p ** n):
        coeffs = digits(k, p, n) + [1]
        if not coeffs[0] or not sum(coeffs) % p or not (sum(coeffs[::2]) - sum(coeffs[1::2])) % p:
            continue
        f = Polynomial(FiniteField(p), coeffs)
        if is_irreducible(f):
            return f.values
    raise PreconditionError(f"no irreducible polynomial of degree {n} over F_{p}")


def log_exp_tables(p: int, n: int, modulus):
    """(g, exp, log, zech, coords) as field._log_exp_tables built them before its walk on codes.

    g, a coordinate tuple, is the first element by code past the constants whose powers to (q - 1)/r
    differ from 1 for each prime r | q - 1, by square-and-multiply with the int-tuple multiply of the
    field's value ops; its powers are stepped on coordinate tuples, by an O(n) shift when g is linear.
    """
    mul = _value_ops(p, n, modulus)[5]
    q = p ** n
    one = (1,) + (0,) * (n - 1)
    cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
    for k in range(p, q):
        g = tuple(digits(k, p, n))
        if all(_pow_by_squaring(mul, one, g, e) != one for e in cofactors):
            break
    else:
        raise InternalInconsistencyError(f"no primitive element in F_{p}^{n} modulo {modulus}")
    if k < p * p:
        c0, c1 = g[0], g[1]

        def step(a):
            top = a[-1]
            return tuple([(c1 * (s - top * m) + c0 * x) % p for s, m, x in zip((0,) + a[:-1], modulus, a)])

    else:
        step = lambda a: mul(a, g)
    power, exp, coords = one, [], [(0,) * n] * q
    for _ in range(q - 1):
        exp.append(_code_of(power, p))
        coords[exp[-1]] = power
        power = step(power)
    log = [None] * q
    for i, c in enumerate(exp):
        log[c] = i
    if log.count(None) != 1:
        raise InternalInconsistencyError(f"the powers of {g} in F_{p}^{n} repeat before q - 1")
    zech = [log[c + 1] if c % p != p - 1 else log[c - p + 1] for c in exp]
    return g, exp + exp, log, zech, coords


def tame_root_count(g: Polynomial) -> int:
    """deg g - deg gcd(g, g') on Polynomials: the distinct roots of g whose multiplicity p does not divide."""
    return g.degree - g.gcd(g.derivative()).degree


def sym_count_bounds_check(q: int, A: int, r: int, value) -> bool:
    """Strict two-sided envelope for a symmetric-product count.

    Checks (1/(7 r!)) (3 - 2/A)^r q^r < value < (5/3 + 4/(3A))^r q^r exactly.
    """
    if not isinstance(A, int) or A < 3:
        raise PreconditionError("the envelope parameter A must be an integer at least 3")
    if q < 2 or r < 1:
        raise PreconditionError("need q at least 2 and r at least 1")
    qr = q**r
    lower = Fraction(1, 7 * factorial(r)) * Fraction(3 * A - 2, A) ** r * qr
    upper = Fraction(5 * A + 4, 3 * A) ** r * qr
    return lower < value < upper


def projective_space_count(q: int, L: int) -> int:
    """Number of points of L-dimensional projective space over a q-element field."""
    if q < 2 or L < 0:
        raise PreconditionError("need q at least 2 and L at least 0")
    return (q ** (L + 1) - 1) // (q - 1)


def _in_prime_subfield(elem) -> bool:
    return all(c == 0 for c in elem.coords[1:])


def _point_in_prime_subfield(point) -> bool:
    if isinstance(point, P1Point):
        return point.is_infinity or _in_prime_subfield(point.value)
    if point.label == "inf":
        return True
    if point.label is not None:
        return _in_prime_subfield(point.y)
    return _in_prime_subfield(point.x) and _in_prime_subfield(point.y)


def pick_points(curve, avoid=(), count: int = 0, subfield: bool = False):
    """Deterministically select rational points outside the avoided set.

    Points come smallest-first in the display order; with the subfield flag
    only points with prime-field coordinates are eligible.
    """
    if count < 0:
        raise PreconditionError("cannot pick a negative number of points")
    avoided = set(avoid)
    pool = [
        point
        for point in curve_points(curve)
        if point not in avoided and (not subfield or _point_in_prime_subfield(point))
    ]
    if len(pool) < count:
        raise PreconditionError(
            f"only {len(pool)} points available outside the avoided set, need {count}"
        )
    return tuple(pool[:count])
