"""The package's one float-sum rule: left to right from 0.0, uncompensated.

From Python 3.12 on, builtin sum compensates its rounding (Neumaier), so a
float sum taken with it would give other bits on other interpreters.  These
tests pin the rule itself, and check on any interpreter that no float sum
of the package goes through builtin sum: with a compensated sum patched in
as every toricmu module's `sum`, the results keep their bits.
"""

import builtins
import math
import sys
from fractions import Fraction

import support
from toricmu import (
    corner_flat_filtration,
    entropy_curve,
    maximize_along_ray,
    maximize_over_vectors,
    metric_dp,
    spectral_measure,
)
from toricmu._ddexp_py import _float_sum


def test_float_sum_adds_left_to_right_from_zero():
    assert _float_sum([]) == 0.0 and isinstance(_float_sum([]), float)
    assert _float_sum(iter([1, 2])) == 3.0 and isinstance(_float_sum([1, 2]), float)
    # compensated (math.fsum, or sum from Python 3.12 on) gives 1.0
    assert _float_sum([1e16, 1.0, -1e16]) == 0.0
    assert _float_sum([1.0, 1e16, -1e16]) == 0.0
    assert _float_sum([-1e16, 1e16, 1.0]) == 1.0
    assert math.copysign(1.0, _float_sum([-0.0])) == 1.0  # 0.0 + -0.0


def compensated_sum(values, start=0):
    """builtin sum as Python 3.12 takes it over floats (Neumaier's
    compensation); any other input, none included, goes to the builtin."""
    values = list(values)
    floats = values and all(type(v) is float for v in values)
    if type(start) not in (int, float) or not floats:
        return builtins.sum(values, start)
    total = float(start)
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def bits(value):
    """value with every float replaced by its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return repr(value)


def float_results():
    """The float consumers of every layer, on inputs built afresh.  At a
    tree that summed them with builtin sum, each of them moves under a
    compensated sum."""
    P5 = support.readme_pentagon()
    corner = support.pa_from(P5, ((1, 0), 0), ((0, 1), 0))
    v = support.pa_from(
        P5, ((1, 1), 0), ((-1, 0), Fraction(1, 3)), ((0, -1), Fraction(1, 4)),
        ((Fraction(1, 2), -1), Fraction(-1, 5)),
    )
    w = support.pa_from(
        P5, ((Fraction(-1, 3), 1), 0), ((2, 0), Fraction(-1, 3)), ((0, 0), Fraction(1, 7))
    )
    return [
        bits(maximize_over_vectors(P5)),
        bits(maximize_along_ray(P5, (1, 1))),
        bits(entropy_curve(P5, corner, xi=(0.25, -0.5), grid=(0.0, 3.0, 31)).rows),
        bits(metric_dp(v, w, 2.5)),
        bits(spectral_measure(corner_flat_filtration(2), 12).exp_integral(1.9)),
    ]


def test_no_float_sum_goes_through_builtin_sum(monkeypatch):
    plain = float_results()
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    for name, module in list(sys.modules.items()):
        if name == "toricmu" or name.startswith("toricmu."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert float_results() == plain
