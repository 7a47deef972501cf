"""Polynomial factorization over finite fields of odd characteristic.

Pipeline: p-th-power aware squarefree decomposition, then distinct-degree
splitting, then randomized equal-degree splitting.  The random generator is
an explicit argument so parallel callers stay deterministic; the default
seed is fixed, and the factor list is sorted, so repeated runs agree.
The distinct-degree loop is lazy, so its first stage alone is Ben-Or's
irreducibility test: one Frobenius-gcd loop serves both.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from .errors import InternalInconsistencyError, PreconditionError
from .field import FieldElement
from .poly import Polynomial

DEFAULT_SEED = 1
SPLIT_TRIES = 100


def _rng(rng_or_seed) -> random.Random:
    if isinstance(rng_or_seed, random.Random):
        return rng_or_seed
    return random.Random(DEFAULT_SEED if rng_or_seed is None else rng_or_seed)


def pth_root(f: Polynomial) -> Polynomial:
    """The polynomial g with g**p = f; requires f to be a p-th power."""
    fld = f.field
    p = fld.p
    root = p ** (fld.n - 1)  # c -> c**root inverts c -> c**p on F_{p^n}
    out = []
    for i, c in enumerate(f.values):
        if i % p == 0:
            out.append(fld.pow(c, root))
        elif c != fld.zero_value:
            raise PreconditionError("polynomial is not a p-th power")
    return Polynomial._from_values(fld, out)


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


def distinct_degree(f: Polynomial) -> Iterator[Tuple[Polynomial, int]]:
    """Split monic f into products of same-degree irreducibles, lazily.

    Yields (g, d) for each d whose stage finds a factor, d ascending; g is
    the product of the degree-d irreducibles of f when f is squarefree.
    The first stage is (f, deg f) exactly when f is irreducible, even if f
    is not squarefree, because a reducible f has a factor of degree at
    most deg f / 2.
    """
    fld = f.field
    q = fld.q
    h = Polynomial.x(fld)
    x = Polynomial.x(fld)
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            yield f, f.degree
            return
        h = h.powmod(q, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            yield g, d
            f = f // g
            h = h % f


def _split(f: Polynomial, d: int, gen: random.Random) -> Tuple[Polynomial, Polynomial]:
    """One random split of f, a monic squarefree product of at least two
    degree-d irreducibles (odd q), into two monic proper factors.

    Each try splits such an f with probability about 1/2 or more, so
    SPLIT_TRIES failures mean that f is not of that form.
    """
    fld = f.field
    exponent = (fld.q ** d - 1) // 2
    for _ in range(SPLIT_TRIES):
        r = Polynomial._from_values(fld, [fld.from_code(gen.randrange(fld.q)) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if not 0 < g.degree < f.degree:
            s = r.powmod(exponent, f)
            g = f.gcd(s - Polynomial.one(fld))
        if 0 < g.degree < f.degree:
            return g.monic(), (f // g).monic()
    raise PreconditionError(
        f"no split of a degree-{f.degree} polynomial in {SPLIT_TRIES} tries: "
        f"it is not a product of distinct irreducibles of degree {d}"
    )


def equal_degree(f: Polynomial, d: int, rng=None) -> List[Polynomial]:
    """Factor a monic squarefree product of degree-d irreducibles (odd q)."""
    gen = _rng(rng)
    if f.degree == d:
        return [f]
    left, right = _split(f, d, gen)
    return equal_degree(left, d, gen) + equal_degree(right, d, gen)


def split_root(f: Polynomial, rng=None) -> FieldElement:
    """One root of f, a product of distinct linear factors over its field.

    Follows the smaller factor of each random split, so it costs about
    log2(deg f) splits instead of the deg f - 1 that roots() needs.
    """
    gen = _rng(rng)
    f = f.monic()
    while f.degree > 1:
        f = min(_split(f, 1, gen), key=lambda g: g.degree)
    if f.degree != 1:
        raise PreconditionError("a constant polynomial has no root")
    return -f.coeff(0)


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
    if linear_part.degree < 1:
        return []
    found = [-g.coeff(0) for g in equal_degree(linear_part, 1, rng)]
    return sorted(found, key=lambda e: e.int_value)


def is_irreducible(f: Polynomial) -> bool:
    """Ben-Or's test: the first distinct-degree stage of an irreducible f is f itself."""
    return f.degree >= 1 and next(distinct_degree(f.monic()))[1] == f.degree
