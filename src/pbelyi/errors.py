"""Shared exception types, the one integer check and the one size check behind every work guard.

PreconditionError covers violated input contracts and failed feasibility
hypotheses; the CLI maps it to exit code 2.  Anything else that escapes is
treated as an internal error (exit code 1).
"""


class PreconditionError(ValueError):
    """An input violates a documented precondition or feasibility hypothesis."""


class InseparableMapError(PreconditionError):
    """The map's Wronskian vanishes identically."""


class GuardExceededError(PreconditionError):
    """A desk-scale guard would be exceeded; the message names the limit."""


class InternalInconsistencyError(RuntimeError):
    """An exactness invariant failed internally (bug or corrupted state)."""


_SHOWN_BITS = 128  # numbers up to 2^128 (39 digits) print in full; 30102/100000 is just below log10(2)


def _number(n):
    """n in decimal when short, else "more than 10^k" (or "less than -10^k") read off its bit length."""
    if n.bit_length() <= _SHOWN_BITS:
        return str(n)
    return "%s10^%d" % ("more than " if n > 0 else "less than -", (n.bit_length() - 1) * 30102 // 100000)


def check_int(name, value, low=None, high=None):
    """value when it is an int with low <= value < high; PreconditionError otherwise.

    low None admits every int, and high None (the one choice when low is None) sets no upper end.

    A bool is no count and a float no integer, 2.0 included, so results stay exact integers.
    The refusal names the parameter, the allowed range and the value given.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if (low is None or value >= low) and (high is None or value < high):
            return value
    shown = _number(value) if isinstance(value, int) else repr(value)
    allowed = "" if low is None else " in [%d, %d)" % (low, high) if high is not None else " at least %d" % low
    raise PreconditionError("%s = %s lies outside the integers%s" % (name, shown, allowed))


def check_size(what, base, exponent, cap, way_out):
    """base**exponent (exponent 1 for a plain number) when at most cap; GuardExceededError otherwise.

    what has one "{}" for the quantity, and way_out says how to get past the cap.  A power past
    the cap by its bound 2^(exponent (bits(base) - 1)) is refused unbuilt, so a power that is
    built has at most twice the cap's bits, and no message prints a number past 2^128 in full.
    """
    check_int("the limit", cap)
    if exponent * (base.bit_length() - 1) <= max(cap, 0).bit_length():
        value = base ** exponent
        if value <= cap:
            return value
    if exponent == 1:
        shown = _number(base)
    elif base < 2 or exponent * base.bit_length() <= _SHOWN_BITS:
        shown = "%s^%s = %d" % (base, _number(exponent), base ** exponent)
    else:  # base**exponent >= 2^bits, since base**64 >= 2^(bits(base**64) - 1)
        bits = exponent * ((base ** 64).bit_length() - 1) // 64
        shown = "%s^%s (more than 10^%d)" % (_number(base), _number(exponent), bits * 30102 // 100000)
    raise GuardExceededError("%s, over the limit %s; %s" % (what.format(shown), _number(cap), way_out))
