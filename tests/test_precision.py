"""Precision claims of the code comments, checked against a 40-digit oracle.

The oracle takes the program's own float roots, frequencies and gains as
exact inputs and sums at 40 digits with mpmath's fsum, as
perfbench/checks.py does, so each error is the float code's rounding alone.
The cases are the stock ladder (slope -0.5, skip 3, 20 Hz to 20 kHz) at
orders 20, 2000 and MAX_ORDER.
"""

import functools
import math

import mpmath
import pytest

from spectilt import design_tilt, digitize_design, log_mag_slope, prewarped_prototype
from spectilt.design import MAX_ORDER, TWO_PI
from spectilt.digitize import _prewarp, _prewarp_zeros, _slide_zeros

ORDERS = [20, 2000, MAX_ORDER]
FS = 48000.0
# Near each band edge and inside the band.
IN_BAND_HZ = [25.0, 440.0, 3000.0, 15000.0]
# design.pole_zero_sum: the interleaved slope's rounding, at any order.
SLOPE_BOUND = 1e-14
# digitize._log_mag: the leveled log gain's rounding, by order.
LEVEL_BOUND = {20: 1e-12, 2000: 5e-11, MAX_ORDER: 5e-11}


@functools.cache
def stock(order: int):
    return design_tilt(-0.5, order=order)


def oracle(poles, zeros, omega: float, term):
    """The sum of term(w^2, root^2) over the zeros minus that over the
    poles, with w = omega, at mpmath's working precision."""
    w2 = mpmath.mpf(omega) ** 2

    def total(roots):
        return mpmath.fsum(term(w2, mpmath.mpf(root) ** 2) for root in roots.tolist())

    return total(zeros) - total(poles)


def slope_term(w2, root2):
    return w2 / (w2 + root2)


def log_term(w2, root2):
    return mpmath.log(w2 + root2) / 2


def leveling_error(poles, zeros, gain: float, omega: float) -> float:
    """ln |H(j omega)| of the leveled roots, whose target is 0."""
    with mpmath.workdps(40):
        return float(mpmath.log(gain) + oracle(poles, zeros, omega, log_term))


@pytest.mark.parametrize("order", ORDERS)
def test_interleaved_slope_matches_oracle(order):
    filt = stock(order).filt
    for f_hz in IN_BAND_HZ:
        omega = TWO_PI * f_hz
        with mpmath.workdps(40):
            exact = float(oracle(filt.poles, filt.zeros, omega, slope_term))
        assert abs(log_mag_slope(filt, omega) - exact) <= SLOPE_BOUND, f_hz


@pytest.mark.parametrize("order", ORDERS)
def test_leveled_log_gain_matches_oracle(order):
    design = stock(order)
    dfilt, ctx = digitize_design(design, FS)
    poles = prewarped_prototype(design, FS).poles
    # The coefficient file, leveled at the prewarped band center.
    center = float(-_prewarp(TWO_PI * design.band.center_hz, ctx.c, FS))
    zeros = _prewarp_zeros(_slide_zeros(ctx.zero_anchors, ctx.ratio, -0.5), ctx.c, FS)
    errors = {"center": leveling_error(poles, zeros, dfilt.gain, center)}
    # A stream, leveled at its louder band edge.
    for alpha in (-1.0, -0.5, 0.5, 1.0):
        _, _, gain = ctx.rebuild(alpha)
        zeros = _prewarp_zeros(_slide_zeros(ctx.zero_anchors, ctx.ratio, alpha), ctx.c, FS)
        errors[alpha] = leveling_error(poles, zeros, gain, ctx._edge_level(alpha)[0])
    assert max(map(abs, errors.values())) <= LEVEL_BOUND[order], errors
