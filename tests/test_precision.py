"""Precision claims of the code comments, checked against mpmath oracles.

Each oracle takes the program's own floats (roots, frequencies, gains, or a
coefficient file's sections) as exact inputs, so each error is the float
code's rounding alone.

- The slope and leveling sums run at 40 digits with mpmath's fsum, as
  perfbench/checks.py does, on the stock ladder (slope -0.5, skip 3, 20 Hz
  to 20 kHz) at orders 20, 2000 and MAX_ORDER.
- The stream runs the first-order cascade's recursion at 30 digits on 4 Ki
  seeded white samples, for the golden stream designs of test_golden.py.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from spectilt import (GaussianSource, StreamingFilter, design_tilt, digitize_design,
                      log_mag_slope, prewarped_prototype)
from spectilt.design import MAX_ORDER, TWO_PI
from spectilt.digitize import _prewarp, _prewarp_zeros, _slide_zeros
from test_golden import CONTROL_BLOCK, STREAM_DESIGNS, STREAM_SEED, _design

ORDERS = [20, 2000, MAX_ORDER]
FS = 48000.0
# Near each band edge and inside the band.
IN_BAND_HZ = [25.0, 440.0, 3000.0, 15000.0]
# design.pole_zero_sum: the interleaved slope's rounding, at any order.
SLOPE_BOUND = 1e-14
# digitize._log_mag: the leveled log gain's rounding, by order.
LEVEL_BOUND = {20: 1e-12, 2000: 5e-11, MAX_ORDER: 5e-11}
# StreamingFilter.process against the recursion, over the peak of the output.
STREAM_SAMPLES = 1 << 12
STATIC_STREAM_BOUND = 1e-12
SWEPT_STREAM_BOUND = 1e-14


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


def cascade_oracle(x, b0, b1, a1, gains, block: int) -> np.ndarray:
    """The gained first-order cascade, section (b0 + b1/z) / (1 + a1/z), at
    30 digits, in the transposed direct form whose state
    ``s = b1*x - a1*y`` carries over a coefficient change.  Row j of b0, b1
    and gains holds the numerators and gain of the j-th ``block`` samples."""
    with mpmath.workdps(30):
        y = [mpmath.mpf(v) for v in x.tolist()]
        for k, den in enumerate(a1.tolist()):
            den, state = mpmath.mpf(den), mpmath.mpf(0)
            for j in range(len(b0)):
                num0, num1 = mpmath.mpf(float(b0[j][k])), mpmath.mpf(float(b1[j][k]))
                for n in range(j * block, min((j + 1) * block, len(y))):
                    out = num0 * y[n] + state
                    state = num1 * y[n] - den * out
                    y[n] = out
        return np.array([float(mpmath.mpf(gains[n // block]) * v) for n, v in enumerate(y)])


def peak_error(y, exact) -> float:
    return float(np.max(np.abs(y - exact)) / np.max(np.abs(exact)))


@pytest.fixture(scope="module")
def white():
    return GaussianSource(STREAM_SEED).block(STREAM_SAMPLES)


@pytest.mark.parametrize("name", sorted(STREAM_DESIGNS))
def test_static_stream_matches_oracle(name, white):
    args, fs = STREAM_DESIGNS[name]
    dfilt, _ = digitize_design(_design(*args), fs)
    b0, b1, _, _, a1, _ = dfilt.sos.T
    exact = cascade_oracle(white, [b0], [b1], a1, [dfilt.gain], len(white))
    assert peak_error(StreamingFilter(dfilt).process(white), exact) <= STATIC_STREAM_BOUND


def test_swept_stream_matches_oracle(white):
    # The stock filter re-sloped from -1 to 1 before every control block, as
    # the golden modulated streams are, against the recursion at the same
    # rebuilt numerators and gains.
    design = design_tilt(-0.5)
    filt = StreamingFilter.for_design(design, FS)
    _, ctx = digitize_design(design, FS)
    n_blocks = len(white) // CONTROL_BLOCK
    alphas = [-1.0 + 2.0 * j / (n_blocks - 1) for j in range(n_blocks)]
    pieces = []
    for j, alpha in enumerate(alphas):
        filt.set_alpha(alpha)
        pieces.append(filt.process(white[j * CONTROL_BLOCK:(j + 1) * CONTROL_BLOCK]))
    b0, b1, gains = zip(*map(ctx.rebuild, alphas))
    exact = cascade_oracle(white, b0, b1, filt.denominators, gains, CONTROL_BLOCK)
    assert peak_error(np.concatenate(pieces), exact) <= SWEPT_STREAM_BOUND
