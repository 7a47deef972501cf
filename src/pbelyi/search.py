"""Brute-force search for minimal-degree Belyi maps over tiny fields.

Candidates are reduced maps with monic denominator, enumerated in a fixed
order.  A cheap exact screen built on the Riemann-Hurwitz count picks out
the hits without factoring, and every hit is then certified by the exact
verifiers.  An exhaustive run that finds nothing is a lower bound over the
searched coefficient fields only, never over the algebraic closure; the
result record names the fields so the caller cannot misread the claim.
"""

import multiprocessing
import random

from .constructions import BelyiInstance, _as_field
from .errors import (
    GuardExceededError,
    InseparableMapError,
    InternalInconsistencyError,
    PreconditionError,
)
from .factor import DEFAULT_SEED, squarefree_decomposition
from .field import FiniteField, digits, embed
from .poly import Polynomial
from .ramification import _checked_sets, verify_tame_belyi, verify_wild_belyi
from .ratmap import RationalMap, parse_point, parse_ratmap, wronskian

EXHAUSTIVE_GUARD = 10 ** 8
DEFAULT_BUDGET = 2000


def _poly_from_code(field, code, length):
    """The polynomial whose length coefficients are the base-q digits of code."""
    return Polynomial(field, [field.from_int_value(c) for c in digits(code, field.q, length)])


def _monic_key(num, den):
    """(den, num) sort keys of num/den once den is scaled to be monic."""
    lead = den.leading
    if lead != den.field.one:
        inv = lead.inverse()
        num, den = num * inv, den * inv
    return (den.sort_key(), num.sort_key())


def _is_orbit_representative(f):
    """f is the least of its postcompositions by the Mobius maps permuting {0, 1, inf}.

    The five other images are (d-n)/d, d/n, d/(d-n), (n-d)/n and n/(n-d).
    f = n/d is reduced, so each of them is reduced too and needs no gcd.
    """
    n, d = f.num, f.den
    key = (d.sort_key(), n.sort_key())
    images = ((d - n, d), (d, n), (d, d - n), (n - d, n), (n, n - d))
    return all(key <= _monic_key(top, bottom) for top, bottom in images)


def enumerate_candidates(field, d, normalize=False):
    """Reduced maps of degree exactly d with monic denominator, fixed order.

    Order: denominator first by (degree, coefficient code), then numerator
    by coefficient code, little-endian base-q codes.  With normalize=True
    only the least member of each orbit under postcomposition with the six
    Mobius maps permuting {0, 1, inf} is kept.
    """
    field = _as_field(field)
    if not isinstance(d, int) or d < 1:
        raise PreconditionError("degree must be a positive integer, got %r" % (d,))
    yield from _candidates(field, d, normalize, 0, _raw_count(field.q, d))


def _raw_count(q, d):
    """Number of raw (denominator, numerator code) pairs at degree d."""
    top = q ** (d + 1)
    return sum(q ** e * (top - (q ** d if e < d else 1)) for e in range(d + 1))


def _candidates(field, d, normalize, lo, hi):
    """The candidates whose raw pair has position in [lo, hi), in stream order.

    Raw pairs run over denominators of degree e = 0..d by code, and for
    each over its numerator codes; enumerate_candidates is the whole range.
    """
    q = field.q
    top = q ** (d + 1)
    base = 0
    for e in range(d + 1):
        start = q ** d if e < d else 1
        width = top - start
        first, last = max(lo - base, 0), min(hi - base, q ** e * width)
        base += q ** e * width
        for body in range(first // width, -(-last // width)):
            den = _poly_from_code(field, q ** e + body, e + 1)
            row = body * width
            for code in range(start + max(first - row, 0), start + min(last - row, width)):
                f = RationalMap(_poly_from_code(field, code, d + 1), den)
                if f.degree != d:
                    continue
                if normalize and not _is_orbit_representative(f):
                    continue
                yield f


class SearchSpec:
    """What to look for: an instance, tame or wild, a degree cap, and how."""

    def __init__(
        self,
        instance,
        kind,
        d_max,
        fields=None,
        mode="exhaustive",
        seed=None,
        budget=DEFAULT_BUDGET,
        normalize=False,
    ):
        if not isinstance(instance, BelyiInstance):
            raise PreconditionError("instance must be a BelyiInstance")
        if kind not in ("tame", "wild"):
            raise PreconditionError("kind must be 'tame' or 'wild', got %r" % (kind,))
        if not isinstance(d_max, int) or d_max < 1:
            raise PreconditionError("d_max must be a positive integer, got %r" % (d_max,))
        if mode not in ("exhaustive", "randomized"):
            raise PreconditionError("mode must be 'exhaustive' or 'randomized'")
        if not isinstance(budget, int) or budget < 1:
            raise PreconditionError("budget must be a positive integer")
        base = instance.field
        if fields is None:
            fields = (base, FiniteField(base.p, 2 * base.n))
        checked = []
        for E in fields:
            if not isinstance(E, FiniteField):
                raise PreconditionError("coefficient fields must be FiniteField instances")
            if E.p != base.p or E.n % base.n != 0:
                raise PreconditionError(f"{E} does not contain the instance field {base}")
            checked.append(E)
        if not checked:
            raise PreconditionError("need at least one coefficient field")
        self.instance = instance
        self.kind = kind
        self.d_max = d_max
        self.fields = tuple(checked)
        self.mode = mode
        self.seed = DEFAULT_SEED if seed is None else seed
        self.budget = budget
        self.normalize = normalize


def _check_guard(spec, cap):
    # the largest degree dominates, so checking d_max covers every round
    for E in spec.fields:
        work = E.q ** (2 * spec.d_max + 2)
        if work > cap:
            raise GuardExceededError(
                f"exhaustive search over {E} at degree {spec.d_max} considers about "
                f"{E.q}^{2 * spec.d_max + 2} = {work} pairs, over the cap "
                f"{cap}; use mode='randomized' with a budget instead"
            )


def _rad_degree(g):
    """Number of distinct roots of g over the algebraic closure."""
    return sum(h.degree for h, _ in squarefree_decomposition(g))


class _Screen:
    """Exact Belyi test for one coefficient field, with no factoring.

    The point sets are validated once, when the screen is built.  For a
    candidate f = N/D of degree d (reduced, D monic) the steps run from
    cheap to dear: the images of the marked and avoided points, then
    separability (the Wronskian W = N'D - ND' is nonzero), then the
    Riemann-Hurwitz count.

    Tame: f is a tame cover branched only over {0, 1, inf} exactly when
    the fibres over those values hold d + 2 points, that is
    deg rad N + deg rad (N - D) + deg rad D + [f(inf) in {0, 1, inf}] = d + 2.
    Wild: every root of W is a pole, and when f(inf) = beta is affine,
    inf is unramified: d - deg (N - beta D) <= 1.

    A candidate passes exactly when verify_*_belyi passes it; certify()
    still runs the verifier on every hit.
    """

    def __init__(self, field, kind, marked, avoided):
        marked, avoided = _checked_sets(field, marked, avoided)
        self.kind = kind
        self.points = (marked, avoided)
        self.one = field.one
        self.marked_inf = any(pt.is_infinity for pt in marked)
        self.avoided_inf = any(pt.is_infinity for pt in avoided)
        self.marked_affine = tuple(pt.value for pt in marked if not pt.is_infinity)
        self.avoided_affine = tuple(pt.value for pt in avoided if not pt.is_infinity)

    def _special_at_infinity(self, f):
        """f(inf) is inf (wild) or lies in {0, 1, inf} (tame)."""
        dn, dd = f.num.degree, f.den.degree
        if self.kind == "wild":
            return dn > dd
        return dn != dd or f.num.leading == self.one

    def _special(self, f, x):
        """f(x) is inf (wild) or lies in {0, 1, inf} (tame), for affine x."""
        bottom = f.den.evaluate(x)
        if self.kind == "wild":
            return bottom.is_zero
        top = f.num.evaluate(x)
        return top.is_zero or bottom.is_zero or top == bottom

    def __call__(self, f):
        if self.marked_inf and not self._special_at_infinity(f):
            return False
        if self.avoided_inf and self._special_at_infinity(f):
            return False
        for x in self.marked_affine:
            if not self._special(f, x):
                return False
        for x in self.avoided_affine:
            if self._special(f, x):
                return False
        w = wronskian(f)
        if w.is_zero:
            return False
        num, den = f.num, f.den
        if self.kind == "tame":
            at_infinity = num.degree != den.degree or num.leading == self.one
            count = _rad_degree(num) + _rad_degree(num - den) + _rad_degree(den) + at_infinity
            return count == f.degree + 2
        g = w.gcd(den)
        while g.degree > 0:
            w = w // g
            g = w.gcd(den)
        if w.degree > 0:
            return False
        if num.degree > den.degree:
            return True
        rest = num - den * num.leading if num.degree == den.degree else num
        return f.degree - rest.degree <= 1

    def certify(self, f):
        """Return f once the verifier confirms that it passes."""
        if not _passes(f, self.kind, *self.points):
            raise InternalInconsistencyError(
                f"{f} passes the Riemann-Hurwitz screen but fails the {self.kind} Belyi verifier"
            )
        return f


def _passes(f, kind, marked, avoided):
    try:
        if kind == "tame":
            return bool(verify_tame_belyi(f, marked, avoided))
        return bool(verify_wild_belyi(f, marked, avoided))
    except InseparableMapError:
        return False


def _scan(candidates, screen):
    """(first certified hit or None, candidates seen up to and including it)."""
    tested = 0
    for f in candidates:
        tested += 1
        if screen(f):
            return screen.certify(f), tested
    return None, tested


def _worker_scan(args):
    """Scan one contiguous block of the raw stream; the hit travels as text."""
    p, n, modulus, d, kind, marked_texts, avoided_texts, normalize, lo, hi = args
    E = FiniteField(p, n, modulus)
    marked = tuple(parse_point(E, t) for t in marked_texts)
    avoided = tuple(parse_point(E, t) for t in avoided_texts)
    witness, tested = _scan(_candidates(E, d, normalize, lo, hi), _Screen(E, kind, marked, avoided))
    return None if witness is None else str(witness), tested


def _scan_parallel(pool, workers, field, d, screen, normalize):
    marked, avoided = screen.points
    total = _raw_count(field.q, d)
    bounds = [total * w // workers for w in range(workers + 1)]
    args = [
        (
            field.p,
            field.n,
            field.modulus,
            d,
            screen.kind,
            tuple(str(pt) for pt in marked),
            tuple(str(pt) for pt in avoided),
            normalize,
            bounds[w],
            bounds[w + 1],
        )
        for w in range(workers)
    ]
    tested = 0
    # blocks arrive in stream order, so the first hit seen is the stream's
    # first, and the blocks after it need not finish
    for text, count in pool.imap(_worker_scan, args):
        tested += count
        if text is not None:
            return parse_ratmap(field, text), tested
    return None, tested


def _random_candidate(field, d, rng):
    q = field.q
    while True:
        e = rng.randrange(d + 1)
        den = _poly_from_code(field, q ** e + rng.randrange(q ** e), e + 1)
        start = q ** d if e < d else 1
        f = RationalMap(_poly_from_code(field, rng.randrange(start, q ** (d + 1)), d + 1), den)
        if f.degree == d:
            return f


def minimal_belyi_degree(spec: SearchSpec, workers: int = 1, guard: int = EXHAUSTIVE_GUARD) -> dict:
    """Scan degrees 1..d_max and return the first certified witness.

    Returns {degree, witness, exhausted, fields_searched, candidates_tested}.
    degree/witness are None when nothing passed; exhausted is True only for
    exhaustive runs, and then "None" certifies a lower bound over exactly
    the fields listed.
    """
    if not isinstance(spec, SearchSpec):
        raise PreconditionError("spec must be a SearchSpec")
    if not isinstance(workers, int) or workers < 1:
        raise PreconditionError("workers must be a positive integer")
    exhaustive = spec.mode == "exhaustive"
    if exhaustive:
        _check_guard(spec, guard)
    base = spec.instance.field
    rounds = []
    for E in spec.fields:
        eps = embed(base, E)
        marked = tuple(pt.embedded(eps) for pt in spec.instance.S)
        avoided = tuple(pt.embedded(eps) for pt in spec.instance.T)
        rounds.append((E, _Screen(E, spec.kind, marked, avoided)))
    rng = random.Random(spec.seed)
    tested_total = 0

    def record(degree, witness):
        return {
            "degree": degree,
            "witness": witness,
            "exhausted": exhaustive,
            "fields_searched": [str(E) for E in spec.fields],
            "candidates_tested": tested_total,
        }

    pool = multiprocessing.Pool(workers) if exhaustive and workers > 1 else None
    try:
        for d in range(1, spec.d_max + 1):
            for E, screen in rounds:
                if not exhaustive:
                    stream = (_random_candidate(E, d, rng) for _ in range(spec.budget))
                    witness, tested = _scan(stream, screen)
                elif pool is None:
                    witness, tested = _scan(enumerate_candidates(E, d, spec.normalize), screen)
                else:
                    witness, tested = _scan_parallel(pool, workers, E, d, screen, spec.normalize)
                tested_total += tested
                if witness is not None:
                    return record(d, witness)
        return record(None, None)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
