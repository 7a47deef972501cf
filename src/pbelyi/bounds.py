"""Exact evaluation of degree bounds and the hypotheses that gate them.

Everything here is integer or Fraction arithmetic; no floating point is
allowed anywhere.  Bound values can be astronomically large, so the value
is only materialized when its estimated digit count stays under a guard,
while the intermediates (thresholds, exponents) are always available.
"""

from fractions import Fraction
from math import factorial, lcm

from .errors import GuardExceededError, InternalInconsistencyError, PreconditionError
from .field import is_prime, prime_power

DIGIT_GUARD = 100_000


def _decimal_digits(value):
    """Number of decimal digits of abs(value), without building a string."""
    if value < 0:
        value = -value
    if value == 0:
        return 1
    # 30103/100000 is a lower approximation of log10(2).
    est = max(1, (value.bit_length() - 1) * 30103 // 100000)
    while 10 ** est <= value:
        est += 1
    while est > 1 and 10 ** (est - 1) > value:
        est -= 1
    return est


_CHUNK_DIGITS = 500  # below 640, the smallest nonzero int-to-str digit limit


def decimal_string(value):
    """str(value) for an int of any size, leaving the int-to-str digit limit alone.

    The value is split by divmod at powers 10**(500 * 2**k) until every
    piece has at most 500 digits, and str() converts each piece.
    """
    if value < 0:
        return "-" + decimal_string(-value)
    powers = [10 ** _CHUNK_DIGITS]
    while powers[-1] <= value:
        powers.append(powers[-1] * powers[-1])
    return _decimal_pieces(value, powers, len(powers) - 2, False)


def _decimal_pieces(value, powers, level, pad):
    """Digits of 0 <= value < powers[level + 1], zero-padded to full width if pad."""
    if level < 0:
        text = str(value)
        return text.zfill(_CHUNK_DIGITS) if pad else text
    high, low = divmod(value, powers[level])
    low_text = _decimal_pieces(low, powers, level - 1, True)
    if high or pad:
        return _decimal_pieces(high, powers, level - 1, pad) + low_text
    return low_text.lstrip("0") or "0"


def _require_nonneg(**named):
    for name, value in named.items():
        if not isinstance(value, int) or value < 0:
            raise PreconditionError("%s must be a nonnegative integer, got %r" % (name, value))


def _check_digit_guard(bits, digit_guard):
    """Refuse a value of about bits + 64 bits once its digits pass digit_guard."""
    digit_estimate = (bits + 64) * 30103 // 100000 + 2
    if digit_estimate > digit_guard:
        raise GuardExceededError(
            "bound value needs about %d decimal digits, over the guard of %d; "
            "pass a larger digit_guard to materialize it" % (digit_estimate, digit_guard)
        )


def lcm_up_to(m):
    """Least common multiple of 1..m, with the empty case giving 1."""
    if not isinstance(m, int) or m < 0:
        raise PreconditionError("m must be a nonnegative integer, got %r" % (m,))
    return lcm(*range(1, m + 1))


def ceil_log_q(q, threshold):
    """Smallest m >= 1 with q**m >= threshold, by exact comparison."""
    if not isinstance(q, int) or q < 2:
        raise PreconditionError("base q must be an integer at least 2, got %r" % (q,))
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise PreconditionError("threshold must be positive, got %s" % threshold)
    m = 1
    power = q
    while power < threshold:
        m += 1
        power *= q
    if power < threshold or (m > 1 and Fraction(power, q) >= threshold):
        raise InternalInconsistencyError("ceil_log_q landed on a wrong exponent")
    return m


class BoundResult:
    """An exactly evaluated bound, its inputs, and the intermediates behind it."""

    def __init__(self, value, inputs, intermediates):
        self.value = value
        self.inputs = dict(inputs)
        self.intermediates = dict(intermediates)
        self.digit_count = _decimal_digits(value)

    def __int__(self):
        return self.value

    def __repr__(self):
        return "BoundResult(value=%s digits, inputs=%r)" % (self.digit_count, self.inputs)

    def to_dict(self):
        out = {
            "value": decimal_string(self.value),
            "digits": self.digit_count,
            "inputs": dict(self.inputs),
        }
        for key, val in self.intermediates.items():
            if isinstance(val, Fraction):
                out[key] = {"num": val.numerator, "den": val.denominator}
            else:
                out[key] = val
        return out


def tame_threshold(g, s, t):
    """Field-size threshold 100 (2g+t+1)! (2g+t+s+1)^2 (5/6)^(2g+t+1), exact."""
    _require_nonneg(g=g, s=s, t=t)
    n = 2 * g + t + 1
    return Fraction(100 * factorial(n) * (2 * g + t + s + 1) ** 2) * Fraction(5, 6) ** n


def tame_bound_parts(g, s, t, q):
    """Intermediates of the tame degree bound, without materializing the value."""
    _require_nonneg(g=g, s=s, t=t)
    prime_power(q)
    threshold = tame_threshold(g, s, t)
    m = ceil_log_q(q, threshold)
    L = lcm_up_to(6 * g + 2 * t)
    exponent = 6 * g + s + 2 * t + 1
    return {
        "factor": 2 * g + t + 1,
        "threshold": threshold,
        "m": m,
        "L": L,
        "exponent": exponent,
        "log_q_size": m * L * exponent,
    }


def tame_bound(g, s, t, q, digit_guard=DIGIT_GUARD):
    """Tame degree bound (2g+t+1) (q^(m L(6g+2t)) - 1)^(6g+s+2t+1), exact.

    Here m is the smallest extension degree with q^m past tame_threshold.
    Raises GuardExceededError instead of materializing values whose digit
    count would exceed digit_guard.
    """
    parts = tame_bound_parts(g, s, t, q)
    power = parts["m"] * parts["L"]
    _check_digit_guard(parts["exponent"] * power * q.bit_length(), digit_guard)
    value = parts["factor"] * (q ** power - 1) ** parts["exponent"]
    return BoundResult(value, {"g": g, "s": s, "t": t, "q": q}, parts)


def field_size_check(q, A, g, n, s, t=None):
    """Test q >= max(A^2 g^2, 100 n! (n^2+s) ((5A+4)/(9A-6))^n), exactly.

    Returns {"ok": bool, "threshold": Fraction}.  When t is given the side
    condition n >= g + max(t, g) is enforced as well.
    """
    if not isinstance(A, int) or A < 3:
        raise PreconditionError("A must be an integer at least 3, got %r" % (A,))
    if not isinstance(n, int) or n < 1:
        raise PreconditionError("n must be a positive integer, got %r" % (n,))
    _require_nonneg(g=g, s=s, q=q)
    if t is not None:
        _require_nonneg(t=t)
        if n < g + max(t, g):
            raise PreconditionError(
                "needs n >= g + max(t, g): n = %d, g + max(t, g) = %d" % (n, g + max(t, g))
            )
    threshold = max(
        Fraction(A * A * g * g),
        Fraction(100 * factorial(n) * (n * n + s)) * Fraction(5 * A + 4, 9 * A - 6) ** n,
    )
    return {"ok": Fraction(q) >= threshold, "threshold": threshold}


def wild_N(g, t):
    """Pole-count parameter max(2g-1+t, t, 2) for the wild constructions."""
    _require_nonneg(g=g, t=t)
    return max(2 * g - 1 + t, t, 2)


def wild_bound(g, s, t, p, digit_guard=DIGIT_GUARD):
    """Wild degree bound N p^(s+2(g+N)) with N = wild_N(g, t), exact."""
    _require_nonneg(g=g, s=s, t=t)
    if not isinstance(p, int) or p == 2 or not is_prime(p):
        raise PreconditionError("p must be an odd prime, got %r" % (p,))
    N = wild_N(g, t)
    exponent = s + 2 * (g + N)
    _check_digit_guard(exponent * p.bit_length(), digit_guard)
    value = N * p ** exponent
    parts = {"N": N, "exponent": exponent, "log_q_size": exponent}
    return BoundResult(value, {"g": g, "s": s, "t": t, "p": p}, parts)


def point_supply_check(q, g, N, s):
    """Exact test of q + 1 - 2g sqrt(q) >= N + s.

    The square root is eliminated: with D = q+1-N-s the test is D >= 0
    together with D^2 >= 4 g^2 q.
    """
    _require_nonneg(q=q, g=g, N=N, s=s)
    D = q + 1 - N - s
    return D >= 0 and D * D >= 4 * g * g * q
