"""The one size check behind every work guard."""

import re

import pytest

from pbelyi.errors import GuardExceededError, check_size


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
