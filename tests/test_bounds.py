import math
import random
import sys
import time
from fractions import Fraction

import pytest

from pbelyi import bounds
from pbelyi.bounds import (
    BoundResult,
    ceil_log_q,
    decimal_string,
    field_size_check,
    lcm_up_to,
    point_supply_check,
    tame_bound,
    tame_bound_parts,
    tame_threshold,
    wild_N,
    wild_bound,
)
from pbelyi.errors import GuardExceededError, PreconditionError

ODD_PRIME_POWERS = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]


def test_lcm_up_to():
    assert lcm_up_to(0) == 1
    assert lcm_up_to(1) == 1
    assert lcm_up_to(6) == 60
    assert lcm_up_to(10) == 2520
    # brute oracle: smallest positive integer divisible by 1..m
    for m in range(1, 9):
        value = lcm_up_to(m)
        assert all(value % k == 0 for k in range(1, m + 1))
        assert all(
            any(smaller % k != 0 for k in range(1, m + 1))
            for smaller in range(1, min(value, 2521))
        ) or value == 1
    with pytest.raises(PreconditionError):
        lcm_up_to(-1)


def test_ceil_log_q_examples():
    assert ceil_log_q(83, Fraction(250, 3)) == 2
    assert ceil_log_q(89, Fraction(250, 3)) == 1
    assert ceil_log_q(7, Fraction(1, 2)) == 1
    assert ceil_log_q(3, 28) == 4
    assert ceil_log_q(3, 27) == 3


def linear_ceil_log_q(q, threshold):
    """The stepping loop ceil_log_q used to run: multiply by q from m = 1."""
    m, power = 1, q
    while power < threshold:
        m += 1
        power *= q
    return m


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_ceil_log_q_matches_the_linear_loop(q):
    thresholds = [Fraction(1, 7), Fraction(1), Fraction(10 ** 40), Fraction(10 ** 40, 7)]
    for k in range(1, 84):
        if q ** (k - 1) > 10 ** 40:
            break
        power = q ** k
        thresholds += [Fraction(power - 1), Fraction(power), Fraction(power + 1), Fraction(power, 2)]
        thresholds += [Fraction(power * 3 + 1, 3), Fraction(power * 7 - 1, 7)]
    rng = random.Random(q)
    thresholds += [Fraction(rng.randrange(1, 10 ** 40), rng.randrange(1, 10 ** 6)) for _ in range(200)]
    for threshold in thresholds:
        assert ceil_log_q(q, threshold) == linear_ceil_log_q(q, threshold), threshold


def test_ceil_log_q_postcondition():
    for q in (2, 3, 5, 83):
        for num in (1, 7, 250, 3001, 10 ** 6):
            for den in (1, 3, 11):
                C = Fraction(num, den)
                m = ceil_log_q(q, C)
                assert m >= 1
                assert Fraction(q) ** m >= C
                if m > 1:
                    assert Fraction(q) ** (m - 1) < C


def test_ceil_log_q_rejects_bad_input():
    with pytest.raises(PreconditionError):
        ceil_log_q(7, 0)
    with pytest.raises(PreconditionError):
        ceil_log_q(7, Fraction(-3, 2))
    with pytest.raises(PreconditionError):
        ceil_log_q(1, 10)


def test_tame_threshold_values():
    assert tame_threshold(0, 0, 0) == Fraction(250, 3)
    assert tame_threshold(1, 0, 0) == 3125
    assert tame_threshold(0, 1, 0) == Fraction(1000, 3)
    # recompute one by hand: 100 * 3! * (0+2+0+1)^2 * (5/6)^3
    assert tame_threshold(0, 0, 2) == Fraction(100 * 6 * 9 * 125, 216)
    assert tame_threshold(0, 0, 2) == 3125
    assert isinstance(tame_threshold(2, 1, 1), Fraction)


def test_tame_bound_small_fields():
    res = tame_bound(0, 0, 0, 89)
    assert res.value == 88
    assert res.intermediates["m"] == 1
    assert res.intermediates["L"] == 1
    assert res.intermediates["factor"] == 1
    assert res.intermediates["exponent"] == 1
    assert res.digit_count == 2

    res = tame_bound(0, 0, 0, 83)
    assert res.value == 6888
    assert res.intermediates["m"] == 2
    assert res.digit_count == 4

    res = tame_bound(0, 0, 0, 5)
    assert res.intermediates["m"] == 3
    assert res.value == 5 ** 3 - 1


def test_tame_bound_genus_one_components():
    res = tame_bound(1, 0, 0, 3125)
    assert res.intermediates["factor"] == 3
    assert res.intermediates["exponent"] == 7
    assert res.intermediates["L"] == 60
    assert res.intermediates["threshold"] == 3125
    # 3125 = 5^5 sits exactly on the threshold, so one step suffices
    assert res.intermediates["m"] == 1
    assert res.value == 3 * (3125 ** 60 - 1) ** 7

    just_below = tame_bound_parts(1, 0, 0, 3121)
    assert just_below["m"] == 2


def test_tame_bound_digit_count_matches_string():
    for args in [(0, 0, 0, 89), (0, 1, 1, 5), (1, 0, 0, 5), (0, 2, 2, 3)]:
        res = tame_bound(*args)
        assert res.digit_count == len(decimal_string(res.value))
        assert isinstance(res.value, int)


def test_tame_bound_guard():
    with pytest.raises(GuardExceededError):
        tame_bound(5, 5, 5, 3)
    # the components stay available even when the value is out of reach
    parts = tame_bound_parts(5, 5, 5, 3)
    assert parts["L"] == lcm_up_to(40)
    assert parts["factor"] == 16


def test_lcm_up_to_n_is_at_least_2_to_the_n_from_7_on():
    """Nair (1982): lcm(1..n) >= 2^n for n >= 7; n = 6 is why the floor starts at 7."""
    assert lcm_up_to(6) < 2 ** 6
    assert all(lcm_up_to(n) >= 2 ** n for n in range(7, 400))


@pytest.mark.parametrize("g, s, t, q", [(0, 0, 4, 5), (0, 3, 7, 3), (1, 0, 1, 25), (2, 1, 0, 7), (0, 0, 9, 83)])
def test_the_lcm_floor_refuses_only_what_the_exact_guard_refuses(monkeypatch, g, s, t, q):
    n = 6 * g + 2 * t
    with pytest.raises(GuardExceededError, match=r"at least 2\^%d = %d digits" % (n, 2 ** n)):
        tame_bound(g, s, t, q, digit_guard=2 ** n - 1)
    monkeypatch.setattr(bounds, "_check_lcm_floor", lambda *args: None)
    with pytest.raises(GuardExceededError, match="estimated at"):
        tame_bound(g, s, t, q, digit_guard=2 ** n - 1)


def test_a_huge_tame_bound_is_refused_before_its_lcm_is_built():
    start = time.monotonic()
    with pytest.raises(GuardExceededError, match=r"at least 2\^200000 \(more than 10\^\d+\) digits"):
        tame_bound(0, 0, 100000, 5)
    assert time.monotonic() - start < 1


def test_tame_bound_input_validation():
    with pytest.raises(PreconditionError):
        tame_bound(-1, 0, 0, 5)
    with pytest.raises(PreconditionError):
        tame_bound(0, 0, 0, 15)
    with pytest.raises(PreconditionError):
        tame_bound(0, 0, 0, 8)
    tame_bound(0, 0, 0, 9)
    tame_bound(0, 0, 0, 27)


def test_tame_bound_recomputes_identically():
    a = tame_bound(0, 1, 1, 7)
    b = tame_bound(0, 1, 1, 7)
    assert a.value == b.value
    assert a.intermediates == b.intermediates
    assert a.inputs == {"g": 0, "s": 1, "t": 1, "q": 7}


def test_bound_result_dict_shape():
    res = tame_bound(0, 0, 0, 83)
    doc = res.to_dict()
    assert doc["value"] == "6888"
    assert doc["digits"] == 4
    assert doc["m"] == 2
    assert doc["L"] == 1
    assert doc["threshold"] == {"num": 250, "den": 3}
    assert doc["inputs"]["q"] == 83
    assert int(doc["value"]) == res.value


def test_tame_bound_monotone_components():
    for q in ODD_PRIME_POWERS:
        for g in range(6):
            for s in range(6):
                for t in range(6):
                    here = tame_bound_parts(g, s, t, q)
                    up_s = tame_bound_parts(g, s + 1, t, q)
                    up_t = tame_bound_parts(g, s, t + 1, q)
                    for key in ("factor", "m", "L", "exponent"):
                        assert up_s[key] >= here[key]
                        assert up_t[key] >= here[key]
                    assert up_s["threshold"] >= here["threshold"]
                    assert up_t["threshold"] >= here["threshold"]


def test_tame_bound_monotone_values_small():
    for q in (3, 89):
        for s in range(3):
            for t in range(3):
                here = tame_bound(0, s, t, q).value
                assert tame_bound(0, s + 1, t, q).value >= here
                assert tame_bound(0, s, t + 1, q).value >= here


def test_field_size_check_examples():
    res = field_size_check(661, 3, 1, 2, 0)
    assert res["ok"] is True
    assert res["threshold"] == Fraction(288800, 441)
    assert field_size_check(625, 3, 1, 2, 0)["ok"] is False

    res = field_size_check(97, 3, 0, 1, 0)
    assert res["ok"] is True
    assert res["threshold"] == Fraction(1900, 21)


def test_field_size_check_takes_the_larger_branch():
    # enormous genus forces the A^2 g^2 branch past the factorial branch
    res = field_size_check(10 ** 6, 3, 400, 1, 0)
    assert res["threshold"] == Fraction(9 * 400 * 400)
    assert res["ok"] is False
    assert field_size_check(9 * 400 * 400, 3, 400, 1, 0)["ok"] is True


def test_field_size_check_validation():
    with pytest.raises(PreconditionError):
        field_size_check(97, 2, 0, 1, 0)
    with pytest.raises(PreconditionError):
        field_size_check(97, 3, 0, 0, 0)
    with pytest.raises(PreconditionError):
        field_size_check(661, 3, 1, 2, 0, t=3)
    # side condition holds: n = 2 >= g + max(t, g) = 2
    assert field_size_check(661, 3, 1, 2, 0, t=1)["ok"] is True


def test_wild_N_values():
    assert wild_N(0, 0) == 2
    assert wild_N(1, 0) == 2
    assert wild_N(0, 5) == 5
    assert wild_N(3, 1) == 6
    assert wild_N(2, 10) == 13


def test_wild_bound_examples():
    res = wild_bound(0, 0, 0, 3)
    assert res.value == 162
    assert res.intermediates["N"] == 2
    assert res.intermediates["exponent"] == 4

    assert wild_bound(1, 0, 0, 3).value == 1458
    assert wild_bound(0, 0, 5, 3).value == 295245
    assert wild_bound(0, 0, 0, 5).value == 2 * 5 ** 4

    with pytest.raises(PreconditionError):
        wild_bound(0, 0, 0, 2)
    with pytest.raises(PreconditionError):
        wild_bound(0, 0, 0, 9)
    with pytest.raises(GuardExceededError):
        wild_bound(10 ** 5, 0, 0, 3)


def test_point_supply_check_examples():
    assert point_supply_check(5, 0, 2, 0) is True
    assert point_supply_check(3, 0, 2, 3) is False
    assert point_supply_check(5, 1, 2, 0) is False
    assert point_supply_check(9, 1, 2, 0) is True
    with pytest.raises(PreconditionError):
        point_supply_check(5, -1, 2, 0)


def test_point_supply_check_against_float_oracle():
    # float sqrt is a safe oracle away from razor-thin margins
    for q in ODD_PRIME_POWERS:
        for g in range(4):
            for N in range(1, 5):
                for s in range(4):
                    lhs = q + 1 - 2 * g * math.sqrt(q)
                    if abs(lhs - (N + s)) < 1e-6:
                        continue
                    assert point_supply_check(q, g, N, s) == (lhs >= N + s)


def test_decimal_string_handles_huge_values():
    res = tame_bound(1, 0, 0, 5, digit_guard=10 ** 6)
    text = decimal_string(res.value)
    assert len(text) == res.digit_count
    assert text[0] != "0"
    assert res.digit_count > 1000


def _digit_limit():
    get = getattr(sys, "get_int_max_str_digits", None)  # Python 3.10.7 and later
    return None if get is None else get()


def _reference_str(value):
    """str(value) with the int-to-str digit limit lifted, then restored."""
    limit = _digit_limit()
    if limit is None:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_string_leaves_the_digit_limit_alone():
    value = random.Random(5).randrange(10 ** 99_999, 10 ** 100_000)
    limit = _digit_limit()
    text = decimal_string(value)
    assert _digit_limit() == limit
    assert text == _reference_str(value)
    assert len(text) == 100_000


def test_decimal_string_matches_str_across_piece_boundaries():
    for value in (0, 7, 10 ** 500 - 1, 10 ** 500, 10 ** 1000 + 1, 10 ** 2000 - 10 ** 700, -(10 ** 1500)):
        assert decimal_string(value) == _reference_str(value)
