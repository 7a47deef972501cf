"""Polynomial factorization over finite fields of odd characteristic.

Pipeline: p-th-power aware squarefree decomposition, then distinct-degree
splitting, then randomized equal-degree splitting.  The random generator is
an explicit argument so parallel callers stay deterministic; the default
seed is fixed, and the factor list is sorted, so repeated runs agree.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .errors import InternalInconsistencyError, PreconditionError
from .field import FieldElement, FiniteField, _prime_divisors, frobenius
from .poly import Polynomial

DEFAULT_SEED = 1


def _rng(rng_or_seed) -> random.Random:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(DEFAULT_SEED if rng_or_seed is None else rng_or_seed)


def pth_root(f: Polynomial) -> Polynomial:
    """The polynomial g with g**p = f; requires f to be a p-th power."""
    fld = f.field
    p = fld.p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(frobenius(c, fld.n - 1) if fld.n > 1 else c)
        elif not c.is_zero:
            raise PreconditionError("polynomial is not a p-th power")
    return Polynomial(fld, out)


def squarefree_decomposition(f: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Monic squarefree parts with multiplicities: f = lc * prod g_i**m_i."""
    if f.is_zero:
        raise PreconditionError("cannot decompose the zero polynomial")
    f = f.monic()
    if f.is_constant:
        return []
    fp = f.derivative()
    if fp.is_zero:
        inner = squarefree_decomposition(pth_root(f))
        return [(g, m * f.field.p) for g, m in inner]
    out: List[Tuple[Polynomial, int]] = []
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
        inner = squarefree_decomposition(pth_root(t))
        out.extend((g, m * f.field.p) for g, m in inner)
    out.sort(key=lambda gm: (gm[1], gm[0].sort_key()))
    return out


def distinct_degree(f: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Split monic squarefree f into products of same-degree irreducibles."""
    fld = f.field
    q = fld.q
    out = []
    h = Polynomial.x(fld)
    x = Polynomial.x(fld)
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f, f.degree))
            break
        h = h.powmod(q, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    return out


def equal_degree(f: Polynomial, d: int, rng=None) -> List[Polynomial]:
    """Factor a monic squarefree product of degree-d irreducibles (odd q)."""
    gen = _rng(rng)
    fld = f.field
    if f.degree == d:
        return [f]
    exponent = (fld.q ** d - 1) // 2
    while True:
        r = Polynomial(fld, [fld.from_int_value(gen.randrange(fld.q)) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree < f.degree:
            left, right = g, f // g
        else:
            s = r.powmod(exponent, f)
            g = f.gcd(s - Polynomial.one(fld))
            if 0 < g.degree < f.degree:
                left, right = g, f // g
            else:
                continue
        return equal_degree(left.monic(), d, gen) + equal_degree(right.monic(), d, gen)


def factor(f: Polynomial, rng=None) -> Tuple[FieldElement, List[Tuple[Polynomial, int]]]:
    """Full factorization: returns (unit, [(monic irreducible, multiplicity)]).

    The factor list is sorted by degree then coefficient order, so output is
    deterministic no matter how the equal-degree stage splits.
    """
    if f.is_zero:
        raise PreconditionError("cannot factor the zero polynomial")
    gen = _rng(rng)
    unit = f.leading
    out: List[Tuple[Polynomial, int]] = []
    for g, mult in squarefree_decomposition(f):
        for h, d in distinct_degree(g):
            for irr in equal_degree(h, d, gen):
                out.append((irr, mult))
    out.sort(key=lambda gm: gm[0].sort_key())
    total = sum(g.degree * m for g, m in out)
    if total != f.degree:
        raise InternalInconsistencyError("factor degrees do not add up")
    return unit, out


def roots(f: Polynomial, rng=None) -> List[FieldElement]:
    """All roots of f in its coefficient field, sorted by element order."""
    if f.is_zero:
        raise PreconditionError("every point is a root of the zero polynomial")
    if f.is_constant:
        return []
    fld = f.field
    x = Polynomial.x(fld)
    linear_part = f.monic().gcd(x.powmod(fld.q, f) - x)
    found: List[FieldElement] = []
    for g, _ in squarefree_decomposition(linear_part):
        for h, d in distinct_degree(g):
            if d != 1:
                raise InternalInconsistencyError("non-linear factor in root isolation")
            for irr in equal_degree(h, 1, _rng(rng)):
                found.append(-irr.coeff(0))
    return sorted(found, key=lambda e: e.int_value)


def is_irreducible(f: Polynomial) -> bool:
    """Rabin's criterion over the coefficient field."""
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
    for ell in _prime_divisors(m):
        g = f.gcd(x.powmod(fld.q ** (m // ell), f) - x)
        if g.degree > 0:
            return False
    return True


def squarefree_part(f: Polynomial) -> Polynomial:
    """The radical: product of the distinct monic irreducible factors."""
    out = Polynomial.one(f.field)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out
