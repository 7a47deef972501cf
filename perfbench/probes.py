"""Kernel probes: the cost of one call of the field and polynomial kernels.

Each probe cycles through fixed operands drawn from the seed, in batches
that timeit's autorange makes at least 0.2 s long, and reports the median
over REPEATS batches in microseconds per call.
"""

import operator
import random
import statistics
import timeit

from pbelyi.field import FieldElement, FiniteField
from pbelyi.poly import Polynomial

REPEATS = 5
OPERANDS = 32


def _per_call_us(fn, operands):
    timer = timeit.Timer(lambda: [fn(*args) for args in operands])
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(REPEATS, number)) / (number * len(operands)) * 1e6


def _unit(F, rng):
    return F.from_int_value(rng.randrange(1, F.q))


def _poly(F, d, rng):
    return Polynomial(F, [F.from_int_value(rng.randrange(F.q)) for _ in range(d)] + [_unit(F, rng)])


def kernel_probes(seed):
    rng = random.Random(f"probes:{seed}")
    out = {}
    for q, (p, n) in ((5, (5, 1)), (25, (5, 2)), (729, (3, 6))):
        F = FiniteField(p, n)
        pairs = [(_unit(F, rng), _unit(F, rng)) for _ in range(OPERANDS)]
        out[f"field.mul_us.q{q}"] = _per_call_us(operator.mul, pairs)
        if q == 25:
            out["field.inverse_us.q25"] = _per_call_us(FieldElement.inverse, [(a,) for a, _ in pairs])
    F5 = FiniteField(5)
    pairs = [(_poly(F5, 9, rng), _poly(F5, 9, rng)) for _ in range(OPERANDS // 4)]
    out["poly.mul_us.d9q5"] = _per_call_us(operator.mul, pairs)
    # degree-18 dividend by degree-9 divisor
    divs = [(a * b + _poly(F5, 8, rng), b) for a, b in pairs]
    out["poly.divmod_us.d9q5"] = _per_call_us(divmod, divs)
    out["poly.gcd_us.d9q5"] = _per_call_us(Polynomial.gcd, pairs)
    # degree-500 dividend by degree-250 divisor
    F7 = FiniteField(7)
    out["poly.divmod_us.d500q7"] = _per_call_us(divmod, [(_poly(F7, 500, rng), _poly(F7, 250, rng))])
    return out
