"""Polynomial factorization over finite fields of odd characteristic.

Pipeline: squarefree decomposition by Yun's algorithm read mod p (von zur
Gathen & Gerhard, Modern Computer Algebra, section 14.6), then
distinct-degree splitting, then randomized equal-degree splitting.  The
random generator is an explicit argument so parallel callers stay
deterministic; the default seed is fixed, and the factor list is sorted, so
repeated runs agree.  The distinct-degree loop is lazy, so its first stage
alone is Ben-Or's irreducibility test: one Frobenius-gcd loop serves both.
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
    """Monic squarefree parts with multiplicities: f = lc * prod g_i**m_i.

    Each g_i is the product of the irreducible factors of multiplicity
    exactly m_i, so the list is unique; it is sorted by multiplicity.  Yun's
    algorithm read mod p: with u = gcd(f, f'), v = f/u and w = f'/u, step r
    takes b_r = gcd(v, w - v') and then v = v/b_r and w = (w - v')/b_r.
    Only the factors of multiplicity prime to p survive in v, and b_r is the
    product of those of multiplicity r mod p, so v is 1 after at most p - 1
    steps.  u / prod b_r^(r-1) is the p-th power of z = prod g_i^(m_i // p);
    the decomposition of z splits each b_r by gcd, and a factor of b_r with
    multiplicity k in z has multiplicity r + p k in f.  A squarefree f
    (u = 1) returns at once.
    """
    if f.is_zero:
        raise PreconditionError("cannot decompose the zero polynomial")
    f = f.monic()
    if f.is_constant:
        return []
    p = f.field.p
    fp = f.derivative()
    u = f.gcd(fp)
    if u.is_constant:
        return [(f, 1)]
    v, w = f // u, fp // u
    parts = []  # [b_r, r]: the product of the factors of multiplicity r mod p
    cofactor = Polynomial.one(f.field)  # prod b_r^(r-1)
    r = 0
    while not v.is_constant:
        r += 1
        if r == p:
            raise InternalInconsistencyError(f"Yun's loop ran {p} steps on f = {f}")
        w = w - v.derivative()
        b = v.gcd(w)
        if not b.is_constant:
            v, w = v // b, w // b
            parts.append([b, r])
            cofactor = cofactor * b ** (r - 1)
    power, rest = divmod(u, cofactor)
    try:
        root = pth_root(power)
    except PreconditionError:
        root = None
    if rest or root is None:
        raise InternalInconsistencyError(f"gcd(f, f') / prod b_r^(r-1) is not a p-th power for f = {f}")
    out: List[Tuple[Polynomial, int]] = []
    for h, k in squarefree_decomposition(root):
        for part in parts:
            c = part[0].gcd(h)
            if not c.is_constant:
                out.append((c, part[1] + p * k))
                part[0] = part[0] // c
                h = h // c
        if not h.is_constant:
            out.append((h, p * k))
    out.extend((b, r) for b, r in parts if not b.is_constant)
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
