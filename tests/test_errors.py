"""The one integer check and the one size check behind every work guard."""

import re
from fractions import Fraction

import pytest

from pbelyi.bounds import (
    ceil_log_q, field_size_check, lcm_up_to, point_supply_check, tame_bound, tame_bound_parts, tame_threshold, wild_N,
    wild_bound,
)
from pbelyi.constructions import BelyiInstance, CoveringDescriptor, tame_pipeline
from pbelyi.counting import (
    Hyperelliptic, ProjectiveLine, ZetaData, closed_point_counts, count_points, enumerate_effective_divisors,
    hasse_weil_check, point_counts, sym_product_count, zeta_fit,
)
from pbelyi.errors import GuardExceededError, PreconditionError, check_int, check_size
from pbelyi.field import FiniteField, is_prime, prime_power
from pbelyi.poly import Polynomial
from pbelyi.ratmap import as_point
from pbelyi.search import SearchSpec, enumerate_candidates, minimal_belyi_degree


def refusal(base, exponent, cap):
    with pytest.raises(GuardExceededError) as err:
        check_size("the work is {} steps", base, exponent, cap, "raise the cap")
    return str(err.value)


def test_check_size_decides_like_the_plain_comparison():
    caps = [-7, -1, 0, 1, 2, 3, 8, 26, 27, 28, 10 ** 6, 2 ** 40, 2 ** 40 - 1, 3 ** 25, 3 ** 25 - 1]
    for base in range(0, 40):
        for exponent in range(0, 30):
            value = base ** exponent
            for cap in caps + [value - 1, value, value + 1]:
                if value <= cap:
                    assert check_size("{}", base, exponent, cap, "raise the cap") == value
                else:
                    refusal(base, exponent, cap)


class TracedInt(int):
    """An int that records the bit length of every power taken of it."""

    powers = []

    def __pow__(self, exponent):
        value = int(self) ** exponent
        TracedInt.powers.append(value.bit_length())
        return value


def test_check_size_never_builds_a_power_far_past_the_cap():
    TracedInt.powers = []
    for exponent in (10 ** 3, 10 ** 6, 10 ** 12):
        refusal(TracedInt(5), exponent, 10 ** 8)
    refusal(TracedInt(5), 15, 10 ** 8)  # undecided by bit lengths: 5^15 is built and compared
    cap_bits = (10 ** 8).bit_length()
    # the exact power is built only within twice the cap's bits; 5^64 bounds the others from below
    assert TracedInt.powers and all(bits <= max(2 * cap_bits, (5 ** 64).bit_length()) for bits in TracedInt.powers)


def test_refusals_state_the_quantity_the_cap_and_the_way_out():
    assert refusal(5, 11, 10 ** 7) == (
        "the work is 5^11 = 48828125 steps, over the limit 10000000; raise the cap"
    )
    assert refusal(27, 1, 26) == "the work is 27 steps, over the limit 26; raise the cap"
    for base, exponent in ((5, 8002), (7, 3000), (10 ** 5000, 1)):
        message = refusal(base, exponent, 10 ** 8)
        assert message.endswith(", over the limit 100000000; raise the cap")
        k = int(re.search(r"more than 10\^(\d+)\)? steps", message).group(1))
        assert 10 ** k < base ** exponent < 10 ** (k + 30)
        assert len(message) < 120
    assert refusal(3, 10 ** 12, 10 ** 8).startswith("the work is 3^1000000000000 (more than 10^")
    assert refusal(10 ** 5000, 1, 10 ** 5000 - 1).count("more than 10^4999") == 2


def refused_int(name, value, low=None, high=None):
    with pytest.raises(PreconditionError) as err:
        check_int(name, value, low, high)
    return str(err.value)


def test_check_int_returns_an_int_in_range_and_refuses_the_rest():
    assert check_int("k", 0, 0) == 0 and check_int("k", -5) == -5 and check_int("k", 4, 0, 5) == 4
    assert check_int("k", TracedInt(3), 1) == 3  # an int subclass other than bool is an int
    assert refused_int("m", 0, 1) == "m = 0 lies outside the integers at least 1"
    assert refused_int("code", 5, 0, 5) == "code = 5 lies outside the integers in [0, 5)"
    assert refused_int("code", -1, 0, 5) == "code = -1 lies outside the integers in [0, 5)"
    for value in (True, False, 2.0, 1.5, float("nan"), "3", None, Fraction(2), Fraction(1, 2), 2j):
        assert refused_int("guard", value) == "guard = %r lies outside the integers" % (value,)
    assert refused_int("r", -(10 ** 50), 1).startswith("r = less than -10^49 lies outside")
    assert refused_int("c", 10 ** 50, 0, 5).startswith("c = more than 10^49 lies outside")


def test_check_size_refuses_a_limit_that_is_not_an_int():
    for cap in (1e8, True, 10 ** 8 + 0.0, "100"):
        with pytest.raises(PreconditionError, match="^the limit = "):
            check_size("the work is {} steps", 5, 3, cap, "raise the cap")


F5 = FiniteField(5)
ELLIPTIC5 = Hyperelliptic(F5, Polynomial(F5, (0, 1, 0, 1)))
SPEC = SearchSpec(BelyiInstance(F5, [0, 1, 2], []), "tame", 1)

# entry point, the parameter it names, the least out-of-range int above (or
# greatest below) the allowed range, or None for a parameter with no range
ENTRY_POINTS = [
    ("lcm_up_to", lambda v: lcm_up_to(v), "m", -1),
    ("ceil_log_q", lambda v: ceil_log_q(v, 10), "q", 1),
    ("tame_threshold.g", lambda v: tame_threshold(v, 0, 0), "g", -1),
    ("tame_threshold.s", lambda v: tame_threshold(0, v, 0), "s", -1),
    ("tame_threshold.t", lambda v: tame_threshold(0, 0, v), "t", -1),
    ("tame_bound_parts.g", lambda v: tame_bound_parts(v, 0, 0, 5), "g", -1),
    ("tame_bound.g", lambda v: tame_bound(v, 0, 0, 5), "g", -1),
    ("tame_bound.s", lambda v: tame_bound(0, v, 0, 5), "s", -1),
    ("tame_bound.t", lambda v: tame_bound(0, 0, v, 5), "t", -1),
    ("tame_bound.q", lambda v: tame_bound(0, 0, 0, v), "odd prime power q", 1),
    ("tame_bound.digit_guard", lambda v: tame_bound(0, 0, 0, 5, digit_guard=v), "digit_guard", None),
    ("field_size_check.q", lambda v: field_size_check(v, 3, 0, 1, 0), "q", -1),
    ("field_size_check.A", lambda v: field_size_check(10, v, 0, 1, 0), "A", 2),
    ("field_size_check.g", lambda v: field_size_check(10, 3, v, 1, 0), "g", -1),
    ("field_size_check.n", lambda v: field_size_check(10, 3, 0, v, 0), "n", 0),
    ("field_size_check.s", lambda v: field_size_check(10, 3, 0, 1, v), "s", -1),
    ("field_size_check.t", lambda v: field_size_check(10, 3, 0, 1, 0, t=v), "t", -1),
    ("wild_N.g", lambda v: wild_N(v, 0), "g", -1),
    ("wild_N.t", lambda v: wild_N(0, v), "t", -1),
    ("wild_bound.s", lambda v: wild_bound(0, v, 0, 5), "s", -1),
    ("wild_bound.p", lambda v: wild_bound(0, 0, 0, v), "p", None),
    ("wild_bound.digit_guard", lambda v: wild_bound(0, 0, 0, 5, digit_guard=v), "digit_guard", None),
    ("point_supply_check.N", lambda v: point_supply_check(5, 0, v, 0), "N", -1),
    ("count_points.m", lambda v: count_points(ProjectiveLine(F5), v), "m", 0),
    ("count_points.workers", lambda v: count_points(ELLIPTIC5, 2, workers=v), "workers", 0),
    ("count_points.guard", lambda v: count_points(ELLIPTIC5, 1, guard=v), "guard", None),
    ("point_counts", lambda v: point_counts(ELLIPTIC5, v), "max_m", -1),
    ("closed_point_counts", lambda v: closed_point_counts(ELLIPTIC5, v), "max_degree", -1),
    ("enumerate_effective_divisors", lambda v: enumerate_effective_divisors(ELLIPTIC5, v), "r", 0),
    ("sym_product_count.r", lambda v: sym_product_count({1: 6, 2: 36}, v), "r", 0),
    ("sym_product_count.counts", lambda v: sym_product_count({1: v, 2: 10}, 2), "counts[1]", -1),
    ("zeta_fit.counts", lambda v: zeta_fit(ELLIPTIC5, {1: v}), "counts[1]", -1),
    ("ZetaData.q", lambda v: ZetaData(v, 1, (1, -2, 5)), "q", 1),
    ("ZetaData.genus", lambda v: ZetaData(5, v, (1, -2, 5)), "genus", -1),
    ("ZetaData.coeffs", lambda v: ZetaData(5, 1, (1, v, 5)), "a_1", None),
    ("ZetaData.predict_N", lambda v: ZetaData(5, 1, (1, -2, 5)).predict_N(v), "m", 0),
    ("hasse_weil_check.q", lambda v: hasse_weil_check(v, 1, 1, 4), "q", 1),
    ("hasse_weil_check.g", lambda v: hasse_weil_check(5, v, 1, 4), "g", -1),
    ("hasse_weil_check.m", lambda v: hasse_weil_check(5, 1, v, 4), "m", 0),
    ("hasse_weil_check.count", lambda v: hasse_weil_check(5, 1, 1, v), "count", -1),
    ("CoveringDescriptor.degree", lambda v: CoveringDescriptor(F5, v, 0), "degree", 0),
    ("CoveringDescriptor.genus", lambda v: CoveringDescriptor(F5, 1, v), "genus", -1),
    ("tame_pipeline.S", lambda v: tame_pipeline(CoveringDescriptor(F5, 1, 0), S=v), "S", -1),
    ("tame_pipeline.T", lambda v: tame_pipeline(CoveringDescriptor(F5, 1, 0), T=v), "T", -1),
    ("enumerate_candidates", lambda v: next(enumerate_candidates(F5, v)), "d", 0),
    ("SearchSpec.d_max", lambda v: SearchSpec(SPEC.instance, "tame", v), "d_max", 0),
    ("SearchSpec.budget", lambda v: SearchSpec(SPEC.instance, "tame", 1, mode="randomized", budget=v), "budget", 0),
    ("minimal_belyi_degree.workers", lambda v: minimal_belyi_degree(SPEC, workers=v), "workers", 0),
    ("minimal_belyi_degree.guard", lambda v: minimal_belyi_degree(SPEC, guard=v), "guard", None),
    ("is_prime", lambda v: is_prime(v), "n", None),  # 7.0 once read as a prime, and 1.5 and True as none
    ("FiniteField.p", lambda v: FiniteField(v), "p", None),
    ("FiniteField.n", lambda v: FiniteField(5, v), "n", 0),
    ("prime_power", lambda v: prime_power(v), "odd prime power q", 2),
    ("as_point", lambda v: as_point(F5, v), "point code", 5),  # a text names a point, so False stands for "3"
]


@pytest.mark.parametrize("call, name, out_of_range", [row[1:] for row in ENTRY_POINTS], ids=[row[0] for row in ENTRY_POINTS])
def test_every_entry_point_refuses_what_is_no_int_in_range_and_names_the_parameter(call, name, out_of_range):
    values = [True, 1.5, 2.0, 7.0] + (["3"] if name != "point code" else [False])
    values += [out_of_range] * (out_of_range is not None)
    for value in values:
        with pytest.raises(PreconditionError) as err:
            call(value)
        assert str(err.value).startswith(name + " = "), (value, str(err.value))
