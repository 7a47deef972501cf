"""Brute-force search for minimal-degree Belyi maps over tiny fields.

Candidates are reduced maps N/D of degree d with monic denominator, in a
fixed order: denominators by (degree, code), then numerators by code.  One
denominator D with its numerator range is a row, and the exhaustive search
works row by row:

- The images of the marked and avoided points give each point a set of
  allowed numerator values there.  A row in which some set is empty, which
  D alone decides, is skipped whole.
- In the other rows only the numerators with allowed values, nonzero at the
  roots of D in the field, are built, by interpolation at the constrained
  points, less those that a symmetry decides (below), and they go in code
  order through a cheap exact screen built on the Riemann-Hurwitz count.
- A stride of rows reports only its first hit, with the hit's row and place,
  and the count is closed form: q^(2d - 1) (q^2 - 1), the number of maps of
  degree d, for a degree with no hit; for a hit, the bands of lower-degree
  denominators, the rows of its own band before it by the polynomial totient
  Phi(D), and its place in its row, Phi(D) per block of q^e numerator codes
  before the hit's block (_place), so no row is rebuilt to count.

Only one row per orbit is screened.  Let G be the group of maps
sigma(x) = bx + a with sigma(S) = S and sigma(T) = T for the marked set S and
the avoided set T.  Every such sigma fixes inf, so N/D -> N(sigma)/D(sigma) sends
the row of D onto the row of D(sigma)/b^e, e = deg D, and keeps the degree,
reducedness, tameness or wildness, and which points are marked or avoided: a
row has a hit exactly when every row of its G-orbit has one.  Rows of an orbit
share their degree, so the first row with a hit comes before the rest of its
orbit and is the least code in it.  The search therefore builds numerators
only in the rows whose code leads its orbit, counts in closed form, and
finds the same witness at the same place as a scan of every row.  The orbits of the
denominators of one degree are found by one sweep over their codes, the first
time a row of that degree meets the points; G is built then too.  A trivial G
makes every row a leader.

Candidates that a symmetry decides are not screened.  For mu one of the six
Moebius maps that permute {0, 1, inf}, mu o f (made monic) is a candidate of
the same degree that passes exactly when f does, so f is never the first hit
when mu o f comes earlier.  In band d (deg D = d) f(inf) = N_d, and a tame
search drops N_d in {0, 1}, where 1/f or f/(f - 1) lies in a lower band; a
stride never enters a band whose set at inf is empty.  In a row, N is screened
only when its code is at most that of D - N, the numerator of 1 - f, which
fixes inf and so serves the wild search too.

The randomized mode draws candidates of every row at random and runs the
whole screen on each.

Worker w of N scans the stride range(w, total, N) of a degree's row indices,
the same _RowSearch.scan for any worker count: serially the one stride
range(total) through map, in parallel the N strides through a pool's imap,
where each worker gets a pickled copy of the round and returns its first hit,
with its row and place, or None.  Leaders are least codes, so they crowd the
low indices of a band, and strides share them about equally where contiguous
ranges would not.  Each worker sweeps a degree's orbits itself, the first
time one of its rows meets the points, as a serial scan does.  The workers
share one integer, the least row index of a hit so far: a worker with a hit
lowers it to its row, and a stride ends at its first row past it.  Every
value written is the row of some hit, so no stride ends before the first
hit's row, and the stride that holds it returns it even when two writes race;
the parent takes the hit with the least index and counts.  When the search
returns, or raises, the parent lowers the index below every row, so the
strides still running end at once, and the pool closes and joins; it is
never terminated, since a worker killed while it sends a result would leave
the result queue locked.

Every hit is certified by the exact verifiers.  An exhaustive run that finds
nothing is a lower bound over the searched coefficient fields only, never
over the algebraic closure; the result record names the fields so the caller
cannot misread the claim.
"""

import functools
import itertools
import operator
import random
import signal
import sys

from .constructions import BelyiInstance, _as_field
from .errors import InseparableMapError, InternalInconsistencyError, PreconditionError, check_int, check_size
from .factor import DEFAULT_SEED, distinct_degree, squarefree_decomposition
from .field import FiniteField, _derivative, _euclid, _trim, digits, embed
from .poly import Polynomial, value_at
from .ramification import _infinity_orbit, verify_tame_belyi, verify_wild_belyi
from .ratmap import RationalMap, disjoint, point_set, wronskian

EXHAUSTIVE_GUARD = 10 ** 8
DEFAULT_BUDGET = 2000

_least_hit = None  # in a pool worker, the shared least row index of a hit so far; set by _init_worker


def _init_worker(least):
    """Pool initializer: keep the shared hit index, and leave Ctrl-C to the parent, which stops the pool."""
    global _least_hit
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _least_hit = least


def _poly_from_code(field, code, length):
    """The polynomial whose length coefficients are the base-q digits of code."""
    return Polynomial._from_values(field, [field.from_code(c) for c in digits(code, field.q, length)])


def enumerate_candidates(field, d):
    """Reduced maps of degree exactly d with monic denominator, fixed order.

    Order: denominator first by (degree, coefficient code), then numerator
    by coefficient code, little-endian base-q codes.  The search counts a
    hit's place in this stream in closed form (_place); this generator,
    which builds every map of each row, is its oracle in the tests.
    """
    field = _as_field(field)
    check_int("d", d, 1)
    for _, e, _, den in _rows(field, range(_row_count(field.q, d))):
        yield from _row_stream(field, d, e, den)


def _row_count(q, d):
    """Number of rows at degree d: the monic denominators of degree at most d."""
    return sum(q ** e for e in range(d + 1))


def _rows(field, indices):
    """(index, deg D, code of D, D) for the rows with these indices, an ascending range; D monic by (degree, code)."""
    q, e, end, offset = field.q, 0, 1, 1  # the rows of band e have indices below end and codes index + offset
    for index in indices:
        while index >= end:
            e += 1
            offset, end = q ** e - end, end + q ** e
        code = index + offset
        yield index, e, code, _poly_from_code(field, code, e + 1)


def _code(field, vals):
    """The base-q code of the polynomial with these element values."""
    code = 0
    for v in reversed(vals):
        code = code * field.q + field.code(v)
    return code


def _row_codes(q, d, e):
    """The numerator codes of a row whose denominator has degree e."""
    return range(q ** d if e < d else 1, q ** (d + 1))


def _row_stream(field, d, e, den):
    """The candidates of one row, in code order: its numerators prime to den."""
    for code in _row_codes(field.q, d, e):
        f = RationalMap(_poly_from_code(field, code, d + 1), den)
        if f.degree == d:
            yield f


def _coprime(field, a, b):
    """Whether the polynomials with the trimmed value tuples a and b, b nonzero, are coprime, by Euclid."""
    return len(_euclid(field, a, b)) == 1


def _place(field, d, e, den, code):
    """The 1-based place in _row_stream(field, d, e, den) of the numerator with this code, in closed form.

    In a block of the q^e codes N = H x^e + L that share H, N mod D runs over
    every residue once, so the block holds Phi(D) candidates.  With e = d the
    row starts at code 1, and its first block at 0 counts in full: N = 0 is
    not prime to D.
    """
    q, block = field.q, field.q ** e
    coprime = lambda k: _coprime(field, _poly_from_code(field, k, d + 1).values, den.values)
    if code not in _row_codes(q, d, e):
        raise InternalInconsistencyError(f"numerator code {code} lies outside the row of {den} at degree {d}")
    if not coprime(code):
        raise InternalInconsistencyError(f"numerator code {code} is not prime to {den}, so not in its row")
    blocks = code // block - (q ** (d - e) if e < d else 0)
    inside = sum(map(coprime, range(code - code % block, code)))
    return (blocks * _totient(den) if blocks else 0) + inside + 1


def _row_total(q, d, e, phi):
    """Candidates in a row whose denominator has degree e and totient phi."""
    return (q - 1) * q ** (d - e) * phi if e < d else q * phi


def _band_total(q, d, e):
    """Candidates in band e, the rows of the D of degree e; Phi sums to q^(2e) - q^(2e - 1) over them for e > 0."""
    return _row_total(q, d, e, q ** (2 * e) - q ** (2 * e - 1) if e else 1)


def _totient(den):
    """Phi(D), the number of residues mod the monic D that are prime to D.

    Phi(D) = q^e prod (1 - q^-k) over the distinct irreducible factors of D,
    e = deg D and k their degrees.  A stage (h, k) of distinct_degree on a
    squarefree part of D is a product of deg h / k of them, so no
    equal-degree split is needed.
    """
    q = den.field.q
    phi = q ** den.degree
    for part, _ in squarefree_decomposition(den):
        for h, k in distinct_degree(part):
            phi = phi // q ** h.degree * (q ** k - 1) ** (h.degree // k)
    return phi


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
    ):
        if not isinstance(instance, BelyiInstance):
            raise PreconditionError("instance must be a BelyiInstance")
        if kind not in ("tame", "wild"):
            raise PreconditionError("kind must be 'tame' or 'wild', got %r" % (kind,))
        check_int("d_max", d_max, 1)
        if mode not in ("exhaustive", "randomized"):
            raise PreconditionError("mode must be 'exhaustive' or 'randomized'")
        check_int("budget", budget, 1)
        base = instance.field
        if fields is None:
            fields = (base, FiniteField(base.p, 2 * base.n))
        checked = []
        for E in fields:
            if not isinstance(E, FiniteField):
                raise PreconditionError("coefficient fields must be FiniteField instances")
            if E.p != base.p or E.n % base.n != 0:
                raise PreconditionError(f"{E} does not contain the instance field {base}")
            if E in checked:
                raise PreconditionError(f"coefficient field {E} is listed twice")
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


def _check_guard(spec, cap):
    # q^(2 d_max + 1) = q + the candidates of degrees 1..d_max, so checking d_max covers every round
    for E in spec.fields:
        check_size(
            f"exhaustive search over {E} at degree {spec.d_max} considers about {{}} candidates",
            E.q, 2 * spec.d_max + 1, cap,
            "use mode='randomized' (--mode randomized) with a budget, or raise guard= (--guard-override)",
        )


def _rad_degree(g):
    """Number of distinct roots of g over the algebraic closure."""
    return sum(h.degree for h, _ in squarefree_decomposition(g))


def _tame_root_count(field, g):
    """deg g - deg gcd(g, g'), g a trimmed value tuple: the distinct roots of g with multiplicity prime to p.

    A root of multiplicity e divides g' exactly e - 1 times when p does not
    divide e and at least e times when it does, so it adds 1 or 0.  This is
    at most _rad_degree(g), with equality when no multiplicity is a multiple
    of p.
    """
    return len(g) - len(_euclid(field, g, _derivative(field, g)))


class _Screen:
    """Exact Belyi test for one coefficient field, with no factoring.

    The point sets are validated once, when the screen is built.  A
    candidate f = N/D of degree d (reduced, D monic) passes when it meets
    the points (meets_points: the images of the marked and avoided points)
    and is ramified as the kind asks (ramified).  The row search builds only
    numerators that meet the points, so it calls ramified alone; a screen
    called on f runs both.

    Tame: f is a tame cover branched only over {0, 1, inf} exactly when
    the fibres over those values hold d + 2 points, that is
    deg rad N + deg rad (N - D) + deg rad D + [f(inf) in {0, 1, inf}] = d + 2.
    The count c' that takes deg g - deg gcd(g, g') in place of deg rad g is
    at most that count, and equal to it for a tame map, so c' != d + 2
    rejects f before any radical is taken.  An inseparable f has N' = D' = 0 and c' <= 1, so the
    tame test needs no Wronskian.
    Wild: the Wronskian W = N'D - ND' is nonzero and every root of W is a
    pole, and when f(inf) = beta is affine, inf is unramified:
    d - deg (N - beta D) <= 1, and ramification._infinity_orbit finds no orbit.

    A candidate passes exactly when verify_*_belyi passes it; certify()
    still runs the verifier on every hit.
    """

    def __init__(self, field, kind, marked, avoided):
        marked, avoided = point_set(field, marked), point_set(field, avoided)
        disjoint(marked, avoided)
        self.field = field
        self.kind = kind
        self.points = (marked, avoided)
        # (x, want): x is a point's value (None for inf), want whether f(x) must be special
        self.constraints = tuple(
            (None if pt.is_infinity else pt.value.value, want)
            for pts, want in ((marked, True), (avoided, False))
            for pt in pts
        )
        self._allowed = {}

    def _special(self, top, bottom):
        """top/bottom is inf (wild) or lies in {0, 1, inf} (tame), for element values."""
        zero = self.field.zero_value
        if bottom == zero:
            return True
        return self.kind == "tame" and (top == zero or top == bottom)

    def _special_at(self, num, den, d, x):
        """num/den, of degree d and given by value tuples, sends x (None for inf) to a special value."""
        fld = self.field
        return self._special(value_at(fld, num, d, x), value_at(fld, den, d, x))

    def meets_points(self, num, den, d):
        """The marked points go to special values and the avoided points do not."""
        return all(self._special_at(num, den, d, x) == want for x, want in self.constraints)

    def allowed(self, bottom, want):
        """The values N(x) with N(x)/bottom special exactly when want, for D(x) = bottom."""
        key = (bottom, want)
        out = self._allowed.get(key)
        if out is None:
            fld = self.field
            values = map(fld.from_code, range(fld.q))
            out = self._allowed[key] = frozenset(v for v in values if self._special(v, bottom) == want)
        return out

    def __call__(self, f):
        """The whole screen, for a candidate of the randomized stream: meets_points, then ramified."""
        return self.meets_points(f.num.values, f.den.values, f.degree) and self.ramified(f)

    def ramified(self, f):
        """The Riemann-Hurwitz test of the kind, for f that meets the points."""
        num, den, d = f.num, f.den, f.degree
        if self.kind == "tame":
            polys = (num, num - den, den)
            at_infinity = self._special_at(num.values, den.values, d, None)
            if sum(_tame_root_count(self.field, g.values) for g in polys) + at_infinity != d + 2:
                return False
            return sum(map(_rad_degree, polys)) + at_infinity == d + 2
        w = wronskian(f)
        if w.is_zero:
            return False
        g = w.gcd(den)
        while g.degree > 0:
            w = w // g
            g = w.gcd(den)
        if w.degree > 0:
            return False
        return num.degree > den.degree or _infinity_orbit(f) is None

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


class _RowSearch:
    """The exhaustive search over one coefficient field, row by row.

    The orbits of the denominators of a degree do not depend on the degree
    of the maps, so they are kept for the whole search; so are the
    interpolation data of each set of nodes.
    """

    def __init__(self, field, screen):
        self.field = field
        self.screen = screen
        self._nodes = {}
        self._group = None  # the affine stabiliser of the points, built when a degree is first swept
        self._leaders = {}  # e -> the degree's leader flags (see leads), or None when the group is trivial
        self._elements = tuple(map(field.from_code, range(field.q)))
        self._nonzero = frozenset(self._elements[1:])

    def group(self):
        """The maps x -> bx + a that keep the marked and the avoided points, as (b, a) values, identity first.

        Every such map fixes inf, so only the affine points are checked; a
        map of a finite set into itself is onto.
        """
        if self._group is None:
            add, mul = self.field.add, self.field.mul
            kept = [{x for x, want in self.screen.constraints if want == side and x is not None} for side in (True, False)]
            self._group = [
                (b, a) for b in self._elements[1:] for a in self._elements
                if all(add(mul(b, x), a) in pts for pts in kept for x in pts)
            ]
        return self._group

    def _moves(self, e):
        """The action of each map of the group but the identity on the monic D of degree e.

        x -> bx + a sends D to D(bx + a)/b^e, which is F_p-affine in the
        base-p digits of D's index, code - q^e: digit j of the image's index
        is c_j + <digits, col_j> mod p.  Each move lists its (c_j, col_j)
        from the top digit down, so the index builds by Horner.
        """
        fld = self.field
        add, mul, zero = fld.add, fld.mul, fld.zero_value
        units = [fld.from_code(fld.p ** t) for t in range(fld.n)]  # a basis of the field over F_p
        moves = []
        for b, a in self.group()[1:]:
            power = [fld.pow(b, -e)] + [zero] * e  # (bx + a)^i / b^e, from i = 0 up
            rows = []
            for _ in range(e):
                rows.extend([c for v in power[:e] for c in fld.coords(mul(u, v))] for u in units)
                power = [add(mul(a, v), mul(b, w)) for v, w in zip(power, [zero] + power)]
            moves.append(list(zip([c for v in power[:e] for c in fld.coords(v)], zip(*rows)))[::-1])
        return moves

    def leads(self, e, code):
        """Whether the monic D of degree e with this code is the least in its orbit under the group.

        Band 0 holds one row, D = 1, which always leads, so its flags are never built.
        """
        if not e:
            return True
        flags = self._flags(e)
        return flags is None or flags[code - self.field.q ** e]

    def _flags(self, e):
        """The degree's leader flags, by code - q^e, or None when the group is trivial.

        The first call for a degree sweeps its codes once, in order: a code
        that no earlier code moved to leads its orbit and clears the flags
        of the rest of the orbit.
        """
        if e not in self._leaders:
            moves = self._moves(e)
            flags = None
            if moves:
                p, width, size = self.field.p, self.field.n * e, self.field.q ** e
                flags = bytearray(b"\x01") * size
                for i in range(size):
                    if flags[i]:
                        ds = digits(i, p, width)
                        for move in moves:
                            j = 0
                            for c, col in move:
                                j = j * p + (c + sum(map(operator.mul, ds, col))) % p
                            if j != i:
                                flags[j] = 0
            self._leaders[e] = flags
        return self._leaders[e]

    def _interpolation(self, xs, d):
        """Lagrange basis at the points xs, and every multiple of prod (x - s) of degree <= d.

        Both are value lists, the basis polynomials of length len(xs) and
        the multiples of length d + 1.  M = prod (x - s) is built one factor
        at a time, each basis polynomial is M / (x - s) by synthetic division
        over its value at s, and the multiples M H in the code order of H by
        adding c x^j M digit by digit, lowest digit fastest.
        """
        key = (xs, d)
        out = self._nodes.get(key)
        if out is None:
            fld = self.field
            add, sub, mul, zero = fld.add, fld.sub, fld.mul, fld.zero_value
            k = len(xs)
            m = [fld.one_value]
            for s in xs:
                m = [sub(a, mul(s, b)) for a, b in zip([zero] + m, m + [zero])]
            basis = []
            for s in xs:
                ell = [m[k]]  # top coefficient first
                for c in m[k - 1 : 0 : -1]:
                    ell.append(add(c, mul(s, ell[-1])))
                ell.reverse()
                scale = fld.inv(value_at(fld, ell, k - 1, s))
                basis.append([mul(scale, c) for c in ell])
            multiples = [[zero] * (d + 1)]
            for j in range(d + 1 - k):  # digit j of the code of H
                shifted = [zero] * j + m + [zero] * (d - k - j)
                scaled = [[mul(c, b) for b in shifted] for c in self._elements]
                multiples = [[add(a, b) for a, b in zip(v, cm)] for cm in scaled for v in multiples]
            out = self._nodes[key] = (basis, multiples)
        return out

    def at_infinity(self, d, e):
        """The x^d coefficients N_d allowed in band e, the rows with deg D = e; an empty set skips the band.

        Below band d, f(inf) = inf and N_d != 0; in band d, f(inf) = N_d, and
        a tame search drops 0 and 1 (module docstring).
        """
        fld, screen, below = self.field, self.screen, e < d
        allowed = self._nonzero if below else frozenset(self._elements[2 if screen.kind == "tame" else 0 :])
        for x, want in screen.constraints:
            if x is None:  # D(inf), the x^d coefficient of D, is 0 below band d and 1 in it
                allowed = allowed & screen.allowed(fld.zero_value if below else fld.one_value, want)
        return allowed

    def allowed_values(self, d, e, den, at_infinity):
        """The values N(x) allowed at each constrained point x of a row, or None when a point allows none.

        Each marked or avoided point x allows a set of values N(x), given by
        D(x); at inf the band's set.  An empty set skips the row.  At a root r
        of D in the field N(r) must be nonzero, since otherwise x - r divides
        N and D and N/D has a lower degree.
        """
        fld, screen = self.field, self.screen
        zero, dvals = fld.zero_value, den.values
        allowed_at = {None: at_infinity}
        for x, want in screen.constraints:
            if x is not None:
                allowed = allowed_at[x] = screen.allowed(value_at(fld, dvals, d, x), want)
                if not allowed:
                    return None
        if e:
            # an allowed set at a root of D is all of the field (or empty), so this narrows it
            allowed_at.update((r, self._nonzero) for r in self._elements if value_at(fld, dvals, d, r) == zero)
        return allowed_at

    def numerators(self, d, den, allowed_at):
        """(code, N, D - N), N and D - N trimmed value tuples, for a row's numerators to screen, in code order.

        These have the allowed values and a code at most that of D - N (module
        docstring).  N is interpolated at up to d + 1 constrained affine points,
        N = L + M H with M the product of x - s over them, and checked at the
        other points and at inf.  A numerator built may still share with D a
        factor that has no root in the field.
        """
        fld = self.field
        q, zero, dvals = fld.q, fld.zero_value, den.values
        narrow = [(x, allowed) for x, allowed in allowed_at.items() if len(allowed) < q]
        nodes = sorted((node for node in narrow if node[0] is not None), key=lambda node: len(node[1]))
        head, tail = nodes[: d + 1], [node for node in narrow if node[0] is None] + nodes[d + 1 :]
        k = len(head)
        basis, multiples = self._interpolation(tuple(x for x, _ in head), d)
        add, sub, mul = fld.add, fld.sub, fld.mul
        dtail = list(dvals) + [zero] * (d + 1 - len(dvals))
        found = []
        for vals in itertools.product(*(allowed for _, allowed in head)):
            low = [zero] * k
            for v, ell in zip(vals, basis):
                low = [add(a, mul(v, b)) for a, b in zip(low, ell)]
            for m in multiples:
                n = [add(a, b) for a, b in zip(low, m)] + m[k:]
                if all(value_at(fld, n, d, x) in allowed for x, allowed in tail):
                    code, rest = _code(fld, n), [sub(b, a) for a, b in zip(n, dtail)]
                    if code and code <= _code(fld, rest):  # N = 0 lies outside every row
                        found.append((code, _trim(n, zero), _trim(rest, zero)))
        found.sort()
        return found

    def scan(self, d, indices):
        """(first certified hit, its row index, its place in the row) in a stride of rows, or None.

        The stride is an ascending range of row indices, and it enters only
        the bands with a set at inf.  A row whose denominator leads its orbit
        builds only the numerators to screen, and maps only those prime to D
        whose tame count, D's share taken once per row, reaches d + 2; every
        other row has a hit exactly when its orbit's leader has one, which
        comes earlier in the stream.  _place counts the hit's place in its row
        in closed form.  In a pool worker the stride ends at its first row past
        the shared least hit index and reports None, and a hit lowers that
        index to its row.
        """
        fld, screen, least = self.field, self.screen, _least_hit
        tame, start, step = screen.kind == "tame", indices.start, indices.step
        for e in range(d + 1):
            at_infinity = self.at_infinity(d, e)
            if not at_infinity:
                continue
            lo, hi = _row_count(fld.q, e - 1), _row_count(fld.q, e)  # band e's row indices lie in [lo, hi)
            for index, _, code, den in _rows(fld, indices[len(range(start, lo, step)) : len(range(start, hi, step))]):
                if least is not None and index > least.value:
                    return None
                # a degree is swept when one of its rows first meets the points; from then on the
                # leader test comes first, so rows that lead no orbit are not evaluated
                if e in self._leaders and not self.leads(e, code):
                    continue
                allowed_at = self.allowed_values(d, e, den, at_infinity)
                if allowed_at is None or not self.leads(e, code):
                    continue
                # the tame count less D's share; f(inf) is inf below band d, and N_d, not 0 or 1, in band d
                dvals = den.values
                share = d + 2 - (e < d) - _tame_root_count(fld, dvals) if tame else None
                for ncode, num, rest in self.numerators(d, den, allowed_at):
                    if tame and _tame_root_count(fld, num) + _tame_root_count(fld, rest) != share:
                        continue
                    if _coprime(fld, num, dvals):
                        f = RationalMap(Polynomial._from_trimmed(fld, num), den)
                        if screen.ramified(f):
                            if least is not None:
                                least.value = min(least.value, index)
                            return screen.certify(f), index, _place(fld, d, e, den, ncode)
        return None


def _scan_blocks(mapper, rows, d, count):
    """(first certified hit or None, candidates up to and including it) at degree d.

    The count strides of the rows, range(w, total, count) for worker w, go
    through mapper, which is map or a pool's imap, and every one reports.
    The hit with the least row index is the stream's first.  Strides report
    only their hit, and the count is closed form (see the module docstring):
    only the rows of the hit's band before it need Phi.
    """
    fld, q = rows.field, rows.field.q
    total = _row_count(q, d)
    strides = [range(w, total, count) for w in range(count)]
    hits = [hit for hit in mapper(functools.partial(rows.scan, d), strides) if hit is not None]
    if not hits:
        return None, q ** (2 * d - 1) * (q * q - 1)
    witness, index, place = min(hits, key=operator.itemgetter(1))
    e = next(e for e in range(d + 1) if index < _row_count(q, e))
    prefix = _rows(fld, range(_row_count(q, e - 1), index))  # the rows of the hit's band before its row
    before = sum(_band_total(q, d, b) for b in range(e))
    before += sum(_row_total(q, d, e, _totient(den)) for _, _, _, den in prefix)
    return witness, before + place


def _random_candidate(field, d, rng):
    q = field.q
    while True:
        e = rng.randrange(d + 1)
        den = _poly_from_code(field, q ** e + rng.randrange(q ** e), e + 1)
        codes = _row_codes(q, d, e)
        f = RationalMap(_poly_from_code(field, codes[rng.randrange(len(codes))], d + 1), den)
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
    check_int("workers", workers, 1)
    check_int("guard", guard)
    exhaustive = spec.mode == "exhaustive"
    if exhaustive:
        _check_guard(spec, guard)
    base = spec.instance.field
    rounds = []
    for E in spec.fields:
        eps = embed(base, E)
        marked = tuple(pt.embedded(eps) for pt in spec.instance.S)
        avoided = tuple(pt.embedded(eps) for pt in spec.instance.T)
        rounds.append(_RowSearch(E, _Screen(E, spec.kind, marked, avoided)))
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

    pool = None
    if exhaustive and workers > 1:
        import multiprocessing  # here, not at the top: importing pbelyi leaves it unloaded

        # a round with a hit ends the search, so the index needs no reset between rounds
        least = multiprocessing.RawValue("q", sys.maxsize)
        pool = multiprocessing.Pool(workers, _init_worker, (least,))
    mapper = map if pool is None else pool.imap
    try:
        for d in range(1, spec.d_max + 1):
            for rows in rounds:
                if exhaustive:
                    witness, tested = _scan_blocks(mapper, rows, d, workers)
                else:
                    stream = (_random_candidate(rows.field, d, rng) for _ in range(spec.budget))
                    witness, tested = _scan(stream, rows.screen)
                tested_total += tested
                if witness is not None:
                    return record(d, witness)
        return record(None, None)
    finally:
        if pool is not None:
            least.value = -1
            pool.close()
            pool.join()
