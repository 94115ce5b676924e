import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectilt import (
    AboveNyquistError,
    AnalogFilter,
    BandSpec,
    DigitalFilter,
    EmptyDesignError,
    FilterDesignError,
    OutOfRangeError,
    UnstableMapError,
    coefficients_to_json,
    design_tilt,
    digital_response,
    digitize_design,
    load_coefficients,
    prewarped_prototype,
    save_coefficients,
)
from spectilt.bode import freq_response
from spectilt.design import _slide_zeros
from spectilt.digitize import (
    _BATCH_COEFFS,
    ZERO_CLAMP_FRACTION,
    _first_order_sos,
    _margin_rule_count,
    _prewarp,
    _prewarp_zeros,
    _prewarped_roots,
    coefficients_from_json,
    prewarp_constant,
)
from spectilt.errors import FileFormatError
from spectilt.serialize import f17

from conftest import mutated_json
from test_golden import SAMPLE_RATES, grid_designs

TWO_PI = 2.0 * math.pi
REBUILD_SLOPES = (-1.0, -0.37, 0.0, 0.5, 1.0)


def design_numerators(design, fs):
    """The cascade's b0, b1 columns for a design, checked against the
    bilinear map of its prototype's zeros (sections past them get z=-1)."""
    sos = digitize_design(design, fs)[0].sos
    c = prewarp_constant(design.placement.f1_hz, fs)
    proto = prewarped_prototype(design, fs)
    dens = c - proto.poles
    nz = len(proto.zeros)
    b0 = np.concatenate([(c - proto.zeros) / dens[:nz], 1.0 / dens[nz:]])
    b1 = np.concatenate([-(c + proto.zeros) / dens[:nz], 1.0 / dens[nz:]])
    assert np.array_equal(sos[:, 0], b0)
    assert np.array_equal(sos[:, 1], b1)
    return b0, b1


def at_slope(design, alpha):
    """The same design (order, skip, band, integer part) at another slope."""
    return design_tilt(alpha, order=design.n, skip=design.k_skip,
                       f_min_hz=design.band.f_min_hz, f_max_hz=design.band.f_max_hz,
                       integer_part=design.spec.integer_part)


def prewarp_break(f_k_hz: float, f1_hz: float, fs_hz: float) -> float:
    """The break f_k moves to under the bilinear constant bound to f1, in Hz."""
    c = prewarp_constant(f1_hz, fs_hz)
    return -float(_prewarp(TWO_PI * f_k_hz, c, fs_hz)) / TWO_PI


class TestPrewarpConstant:
    def test_low_frequency_limit_is_two_fs(self):
        assert prewarp_constant(1e-6, 48000.0) == pytest.approx(96000.0, rel=1e-9)

    def test_quarter_fs(self):
        assert prewarp_constant(12000.0, 48000.0) == pytest.approx(
            math.pi * 48000.0 / 2.0, rel=1e-14
        )

    def test_value_1khz_48k(self):
        # 2*pi*1000 / tan(pi/48), frozen from direct evaluation.
        assert prewarp_constant(1000.0, 48000.0) == pytest.approx(95862.88299858954, rel=1e-13)

    def test_above_nyquist(self):
        with pytest.raises(AboveNyquistError):
            prewarp_constant(24000.0, 48000.0)
        with pytest.raises(AboveNyquistError):
            prewarp_constant(0.0, 48000.0)

    def test_sample_rate_must_be_positive_and_finite(self):
        for fs in (0.0, -48000.0, math.nan):
            with pytest.raises(AboveNyquistError):
                prewarp_constant(1000.0, fs)
        with pytest.raises(OutOfRangeError, match="finite"):
            prewarp_constant(1000.0, math.inf)

    def test_underflowing_tangent_is_too_large_a_rate(self):
        # pi*f1/fs, and so tan, underflows to 0 while f1 < fs/2 holds.
        with pytest.raises(OutOfRangeError, match="9.24e.300 Hz is too large"):
            prewarp_constant(1.6852982200871556e-48, 9.24e300)


class TestPrewarpBreak:
    def test_fixed_point_at_f1(self, rng):
        # c is bound to f1, so f1 maps onto itself up to the roundings of c
        # and of the tangent: at most two ulps of the angular frequency.
        for fs in (44100.0, 48000.0, 96000.0):
            for f1 in [20.0, 997.25, *rng.uniform(0.01, 0.49 * fs, 200)]:
                w = TWO_PI * f1
                got = -float(_prewarp(w, prewarp_constant(f1, fs), fs))
                assert abs(got - w) <= 2.0 * np.spacing(w)

    def test_small_breaks_barely_move(self):
        # Relative shift stays under 1% through fs/20.
        fs = 48000.0
        for f in np.linspace(1.0, fs / 20.0, 50):
            shifted = prewarp_break(float(f), 20.0, fs)
            assert abs(shifted / f - 1.0) < 0.01

    def test_band_top_stretches(self):
        out = prewarp_break(20000.0, 20.0, 48000.0)
        assert math.isfinite(out)
        assert out > 20000.0
        # f1 * tan(5*pi/12) / tan(pi*20/48000)
        expected = 20.0 * math.tan(5.0 * math.pi / 12.0) / math.tan(math.pi * 20.0 / 48000.0)
        assert out == pytest.approx(expected, rel=1e-14)

    @given(
        f=st.floats(min_value=1.0, max_value=23999.0),
        g=st.floats(min_value=1.0, max_value=23999.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, f, g):
        if f == g:
            return
        lo, hi = sorted((f, g))
        assert prewarp_break(lo, 100.0, 48000.0) < prewarp_break(hi, 100.0, 48000.0)

    def test_above_nyquist(self):
        # Breaks at or above fs/2 have no image; the map rejects such poles
        # and caps such zeros at the prewarped 2*pi*0.499*fs.
        assert math.isnan(prewarp_break(24000.0, 100.0, 48000.0))
        assert math.isnan(prewarp_break(30000.0, 100.0, 48000.0))
        c = prewarp_constant(100.0, 48000.0)
        band = BandSpec(100.0, 200.0)
        above = AnalogFilter(poles=[-TWO_PI * 100.0, -TWO_PI * 24000.0], zeros=[], gain=1.0)
        with pytest.raises(AboveNyquistError):
            _prewarped_roots(above, c, 48000.0, band)
        clamped = AnalogFilter(poles=[-TWO_PI * 100.0, -TWO_PI * 200.0],
                               zeros=[-TWO_PI * 150.0, -TWO_PI * 30000.0], gain=1.0)
        _, zeros, _ = _prewarped_roots(clamped, c, 48000.0, band)
        assert zeros[1] == -TWO_PI * ZERO_CLAMP_FRACTION * 48000.0


class TestTruncate:
    def test_octave_ladder_keeps_margin(self):
        # One full interval left below Nyquist: first discarded break <= fs/2.
        breaks = np.array([100.0 * 2.0**k for k in range(11)])
        n_keep = _margin_rule_count(breaks, 48000.0)
        assert n_keep == 7
        assert breaks[n_keep] <= 24000.0
        assert breaks[n_keep + 1] > 24000.0

    def test_all_below_quarter_fs_keeps_all(self):
        breaks = np.array([100.0, 200.0, 400.0])
        assert _margin_rule_count(breaks, 48000.0) == 3

    def test_all_above_nyquist_is_empty(self):
        with pytest.raises(EmptyDesignError):
            _margin_rule_count(np.array([30000.0, 60000.0]), 48000.0)

    def test_tied_breaks_count_each(self):
        # Repeated integer-part poles give tied breaks; each one is kept.
        assert _margin_rule_count(np.array([100.0, 100.0, 200.0]), 48000.0) == 3
        assert _margin_rule_count(np.array([100.0, 100.0, 30000.0]), 48000.0) == 1


class TestParams:
    def test_for_design_binds_constant(self, default_design):
        # digitize_design binds the bilinear constant to the design's f1.
        _, ctx = digitize_design(default_design, 48000.0)
        f1 = default_design.placement.f1_hz
        assert ctx.c == prewarp_constant(f1, 48000.0)
        assert ctx.c == pytest.approx(
            TWO_PI * f1 / math.tan(math.pi * f1 / 48000.0), rel=1e-15
        )
        assert ctx.fs_hz == 48000.0


def _random_design(rng):
    # Keep at least three pole intervals across the band so the ratio (and
    # with it the lowest skirt break) stays in a representable range.
    n = int(rng.integers(5, 32))
    k = int(rng.integers(0, min(4, (n - 4) // 2) + 1))
    fs = float(rng.uniform(8000.0, 96000.0))
    f_min = float(rng.uniform(1.0, 50.0))
    f_max = f_min * float(rng.uniform(4.0, 0.35 * fs / f_min))
    alpha = float(rng.uniform(-1.0, 1.0))
    design = design_tilt(alpha, order=n, skip=k, f_min_hz=f_min, f_max_hz=f_max)
    return design, fs


class TestBilinear:
    def test_pole_map_values(self, default_design):
        dfilt, ctx = digitize_design(default_design, 48000.0)
        proto = prewarped_prototype(default_design, 48000.0)
        # Each section pole is (1 + p/c)/(1 - p/c) for the prewarped pole p.
        for a1, p in zip(dfilt.sos[:, 4], proto.poles):
            assert -a1 == pytest.approx((1.0 + p / ctx.c) / (1.0 - p / ctx.c), rel=1e-12)

    def test_stability_and_section_count(self, rng):
        for _ in range(40):
            design, fs = _random_design(rng)
            dfilt, _ = digitize_design(design, fs)
            assert len(dfilt.sos) <= len(design.filt.poles)
            assert np.all(np.abs(dfilt.sos[:, 4]) < 1.0)

    def test_response_identity_random_designs(self, rng):
        worst = 0.0
        for _ in range(60):
            design, fs = _random_design(rng)
            proto = prewarped_prototype(design, fs)
            dfilt, ctx = digitize_design(design, fs)
            f = rng.uniform(0.01 * fs, 0.49 * fs, size=8)
            hd = digital_response(dfilt, f)
            ha = freq_response(proto, ctx.c * np.tan(np.pi * f / fs))
            worst = max(worst, float(np.max(np.abs(hd - ha) / np.abs(ha))))
        assert worst < 1e-9

    def test_magnitude_match_at_f1(self, default_design):
        proto = prewarped_prototype(default_design, 48000.0)
        dfilt, _ = digitize_design(default_design, 48000.0)
        f1 = default_design.placement.f1_hz
        mag_d = abs(digital_response(dfilt, f1))
        mag_a = abs(freq_response(proto, TWO_PI * f1))
        assert mag_d == pytest.approx(mag_a, rel=1e-9)

    def test_band_center_level_matches_analog(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        fc = default_design.band.center_hz
        target = abs(freq_response(default_design.filt, TWO_PI * fc))
        assert abs(digital_response(dfilt, fc)) == pytest.approx(target, rel=1e-12)

    def test_zero_slope_sections_cancel(self):
        design = design_tilt(0.0)
        dfilt, _ = digitize_design(design, 48000.0)
        assert np.all(dfilt.sos[:, 0] == 1.0)
        assert np.array_equal(dfilt.sos[:, 1], dfilt.sos[:, 4])

    def test_excess_analog_poles_pair_with_nyquist_zeros(self):
        # integer_part = -1 adds a pole with no zero partner; its section
        # carries the digital zero at z = -1 (b0 == b1).
        design = design_tilt(-0.5, order=8, skip=1, f_min_hz=100.0, f_max_hz=5000.0,
                             integer_part=-1)
        dfilt, _ = digitize_design(design, 48000.0)
        assert len(dfilt.sos) == len(design.filt.poles)
        b0, b1 = dfilt.sos[-1, :2]
        assert b0 == b1
        z_at_minus_one = b0 + b1 * np.exp(-1j * math.pi)
        assert abs(z_at_minus_one) < 1e-15

    def test_repeated_integer_part_poles_digitize(self):
        # integer_part = -2 duplicates the skirt pole; tied breaks must not
        # trip the truncation rule.
        design = design_tilt(-0.3, order=8, skip=1, f_min_hz=100.0, f_max_hz=5000.0,
                             integer_part=-2)
        dfilt, _ = digitize_design(design, 48000.0)
        assert len(dfilt.sos) == len(design.filt.poles)
        assert np.all(np.abs(dfilt.sos[:, 4]) < 1.0)

    def test_improper_prototype_rejected(self):
        design = design_tilt(0.5, order=8, skip=1, f_min_hz=100.0, f_max_hz=5000.0,
                             integer_part=1)
        with pytest.raises(UnstableMapError):
            digitize_design(design, 48000.0)

    def test_zero_clamping_keeps_order(self):
        # alpha = -1 slides the top zero onto the next pole break, 20 kHz,
        # below fs/2 but past the cap's digital image, 15 324 Hz at 48 kHz;
        # it must clamp, not blow up.
        design = design_tilt(-1.0)
        dfilt, _ = digitize_design(design, 48000.0)
        proto = prewarped_prototype(design, 48000.0)
        assert np.max(np.abs(proto.zeros)) <= TWO_PI * 0.499 * 48000.0 + 1e-9
        assert np.all(np.abs(dfilt.sos[:, 4]) < 1.0)

    def test_unstable_section_rejected_at_type(self):
        with pytest.raises(UnstableMapError):
            DigitalFilter(sos=[[1.0, 0.5, 0.0, 1.0, -1.0, 0.0]], gain=1.0, sample_rate_hz=48000.0)
        with pytest.raises(UnstableMapError):
            DigitalFilter(sos=[[1.0, 0.5, 0.0, 1.0, np.nan, 0.0]], gain=1.0,
                          sample_rate_hz=48000.0)

    def test_empty_cascade_rejected_at_type(self):
        with pytest.raises(EmptyDesignError):
            DigitalFilter(sos=np.zeros((0, 6)), gain=1.0, sample_rate_hz=48000.0)

    def test_no_pole_below_nyquist_is_empty(self):
        # Poles at 100 Hz and 30 kHz: one break lies below fs/2, and the
        # one-interval margin discards it too.
        design = design_tilt(-0.5, order=2, skip=0, f_min_hz=100.0, f_max_hz=30000.0)
        with pytest.raises(EmptyDesignError, match="no pole survives Nyquist truncation"):
            digitize_design(design, 48000.0)

    def test_rows_must_be_first_order(self):
        for sos in ([[1.0, 0.5, 0.1, 1.0, -0.5, 0.0]], [[1.0, 0.5, 0.0, 2.0, -0.5, 0.0]],
                    [[1.0, 0.5, 0.0, 1.0, -0.5, 0.3]], [1.0, 0.5, 0.0, 1.0, -0.5, 0.0],
                    [[1.0, 0.5, -0.5]]):
            with pytest.raises(OutOfRangeError):
                DigitalFilter(sos=sos, gain=1.0, sample_rate_hz=48000.0)
        with pytest.raises(OutOfRangeError):
            DigitalFilter(sos=np.zeros((0, 6)), gain=1.0, sample_rate_hz=0.0)

    _ROW = [1.0, 0.5, 0.0, 1.0, -0.5, 0.0]
    _SHAPE = (OutOfRangeError, "sos must be an (n, 6) array of rows [b0, b1, 0, 1, a1, 0]")

    @pytest.mark.parametrize("sos, error", [
        ([_ROW, [1.0, 0.5, 0.1, 1.0, -0.5, 0.0]], _SHAPE),  # b2 != 0
        ([_ROW, [1.0, 0.5, 0.0, 1.0, -0.5, 0.3]], _SHAPE),  # a2 != 0
        ([[1.0, 0.5, 0.0, 2.0, -0.5, 0.0], _ROW], _SHAPE),  # a0 != 1
        ([_ROW, [1.0, 0.5, 0.0, 1.0, 1.0, 0.0]],
         (UnstableMapError, "section pole -1.0 is not inside (-1, 1)")),
        ([[1.0, 0.5, 0.0, 1.0, -1.0, 0.0]],
         (UnstableMapError, "section pole 1.0 is not inside (-1, 1)")),
        ([_ROW, [1.0, 0.5, 0.0, 1.0, np.nan, 0.0], [1.0, 0.5, 0.0, 1.0, 2.0, 0.0]],
         (UnstableMapError, "section pole nan is not inside (-1, 1)")),
        (np.zeros((0, 6)), (EmptyDesignError, "a cascade needs at least one section")),
    ])
    def test_rejections_name_the_fault(self, sos, error):
        # The first failing check names the fault; an unstable one names the
        # first pole outside (-1, 1).
        with pytest.raises(FilterDesignError) as info:
            DigitalFilter(sos=sos, gain=1.0, sample_rate_hz=48000.0)
        assert (type(info.value), str(info.value)) == error

    def test_sos_is_a_read_only_copy(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        with pytest.raises(ValueError):
            dfilt.sos[0, 0] = 0.0
        rows = np.array([[1.0, 0.5, 0.0, 1.0, -0.5, 0.0]])
        held = DigitalFilter(sos=rows, gain=1.0, sample_rate_hz=48000.0)
        rows[0, 0] = 2.0
        assert held.sos[0, 0] == 1.0


class TestModulationContext:
    def test_rebuild_current_alpha_is_identity(self, default_design):
        dfilt, ctx = digitize_design(default_design, 48000.0)
        b0a, b1a, gain_a = ctx.rebuild(default_design.spec.alpha)
        b0b, b1b, gain_b = ctx.rebuild(default_design.spec.alpha)
        assert np.array_equal(b0a, b0b)
        assert np.array_equal(b1a, b1b)
        assert gain_a == gain_b

    def test_rebuild_matches_bilinear_numerators(self):
        # The cascade's numerators come from rebuild at the design slope; they
        # are the bilinear map of the prototype's zeros bit for bit, because
        # both slide the same anchors with design._slide_zeros.
        for fs in SAMPLE_RATES:
            for design in grid_designs():
                design_numerators(design, fs)

    def test_rebuild_matches_design_at_every_slope(self):
        # A context from the design at alpha, rebuilt at beta, gives the
        # numerators of the design at beta, for every grid design and rate.
        expected = {}
        for fs in SAMPLE_RATES:
            for design in grid_designs():
                _, ctx = digitize_design(design, fs)
                for beta in REBUILD_SLOPES:
                    key = (beta, fs, design.n, design.k_skip, design.band,
                           design.spec.integer_part)
                    if key not in expected:
                        expected[key] = design_numerators(at_slope(design, beta), fs)
                    b0, b1, _ = ctx.rebuild(beta)
                    assert np.array_equal(b0, expected[key][0])
                    assert np.array_equal(b1, expected[key][1])

    @given(alpha=st.floats(-1.0, 1.0), beta=st.floats(-1.0, 1.0),
           fs=st.sampled_from(SAMPLE_RATES))
    @settings(max_examples=100, deadline=None)
    def test_stock_rebuild_matches_design_at_any_slope(self, alpha, beta, fs):
        _, ctx = digitize_design(design_tilt(alpha), fs)
        b0, b1, _ = ctx.rebuild(beta)
        expected_b0, expected_b1 = design_numerators(design_tilt(beta), fs)
        assert np.array_equal(b0, expected_b0)
        assert np.array_equal(b1, expected_b1)

    @staticmethod
    def assert_rows_are_rebuilds(ctx, alphas):
        rows = list(ctx._rebuild_rows(alphas))
        assert len(rows) == len(alphas)
        for alpha, (numerators, gain) in zip(alphas, rows):
            b0, b1, expected_gain = ctx.rebuild(alpha)
            assert np.array_equal(numerators[:, 0], b0)
            assert np.array_equal(numerators[:, 1], b1)
            assert gain == expected_gain
        return rows

    def test_batched_rows_are_rebuilds_over_the_grid(self):
        # Slide factors 1 and r**-1, r as the edge level switches, in one batch.
        for fs in SAMPLE_RATES:
            for design in grid_designs():
                _, ctx = digitize_design(design, fs)
                self.assert_rows_are_rebuilds(ctx, [-1.0, 0.0, 1.0, -0.0, -0.37, 0.5])

    def test_batched_rows_are_rebuilds_through_the_clamp(self):
        # The stock design's top zero is capped at 48 kHz from alpha = -1 up
        # past -0.5; one 64 Ki-sample read's 1024 slopes.
        _, ctx = digitize_design(design_tilt(-0.5), 48000.0)
        top = _prewarp_zeros(_slide_zeros(ctx.zero_anchors, ctx.ratio, -0.5), ctx.c, 48000.0)[-1]
        assert top == -TWO_PI * ZERO_CLAMP_FRACTION * 48000.0
        self.assert_rows_are_rebuilds(ctx, np.linspace(-1.0, 1.0, 1024).tolist())
        # The cap is on the prewarped |s|: its digital image is near 0.319*fs,
        # not just below fs/2.  The stock top zero, at 15 334 Hz, lands there.
        for fs, image_hz in ((44100.0, 14079.3), (48000.0, 15324.4)):
            dfilt, ctx = digitize_design(design_tilt(-0.5), fs)
            b0, b1 = dfilt.sos[-1, :2]
            z = -b1 / b0  # the top section's zero, whose |s| is c*(1 - z)/(1 + z)
            f = fs / math.pi * math.atan((1.0 - z) / (1.0 + z))
            assert f == pytest.approx(image_hz, abs=0.1)
            assert f == pytest.approx(
                fs / math.pi * math.atan(TWO_PI * ZERO_CLAMP_FRACTION * fs / ctx.c), rel=1e-12)

    def test_batched_rows_come_in_capped_groups(self):
        # 2000 sections: _BATCH_COEFFS // 2000 slopes per group, so two
        # groups' worth of slopes and one more take three groups.
        _, ctx = digitize_design(design_tilt(0.2, order=2000), 48000.0)
        sections = len(ctx.section_dens)
        assert sections == 2000
        group = _BATCH_COEFFS // sections
        alphas = np.linspace(0.9, -0.9, 2 * group + 1).tolist()
        rows = self.assert_rows_are_rebuilds(ctx, alphas)
        groups = {id(numerators.base) for numerators, _ in rows}
        assert len(groups) == 3
        assert rows[0][0].base.shape == (sections, 2, group)
        # More sections than the cap: each group holds one slope, over the cap.
        _, ctx = digitize_design(design_tilt(0.2, order=5000), 48000.0)
        sections = len(ctx.section_dens)
        assert sections == 5000 > _BATCH_COEFFS
        rows = self.assert_rows_are_rebuilds(ctx, [0.9, 0.0, -0.9])
        assert len({id(numerators.base) for numerators, _ in rows}) == 3
        assert all(numerators.base.shape == (sections, 2, 1) for numerators, _ in rows)

    @pytest.mark.parametrize("bad", [1.5, -1.0000000000000002, math.nan])
    def test_batched_rows_check_every_slope_first(self, default_design, bad):
        _, ctx = digitize_design(default_design, 48000.0)
        rows = ctx._rebuild_rows([0.5, bad])
        with pytest.raises(OutOfRangeError, match=r"alpha must lie in \[-1, 1\]"):
            next(rows)

    def test_edge_gain_overflow_named(self):
        # The center gain of this band fits a float; its louder edge's does not.
        design = design_tilt(0.0, order=2, skip=0, f_min_hz=1e96, f_max_hz=1e106,
                             integer_part=-3)
        dfilt, ctx = digitize_design(design, 3e106)
        b0, b1 = dfilt.sos[:, 0].copy(), dfilt.sos[:, 1].copy()
        with pytest.raises(OutOfRangeError, match=r"louder band edge at unity, e\^739.29"):
            ctx._rebuild_into(0.0, b0, b1)
        assert np.array_equal(b0, dfilt.sos[:, 0]) and np.array_equal(b1, dfilt.sos[:, 1])
        with pytest.raises(OutOfRangeError, match=r"louder band edge at unity, e\^739.29"):
            next(ctx._rebuild_rows([0.0]))

    def test_slope_range_checked_at_its_bounds(self):
        # At 3e106 Hz this band's low edge levels every slope below 0, but
        # the high edge's gain overflows from slope 0 up.
        design = design_tilt(-0.5, order=2, skip=0, f_min_hz=1e96, f_max_hz=1e106,
                             integer_part=-3)
        _, ctx = digitize_design(design, 3e106)
        ctx._check_slopes(-1.0, math.nextafter(0.0, -1.0))
        for a0, a1 in [(-0.5, 1.0), (1.0, -0.5), (0.0, 0.0)]:
            with pytest.raises(OutOfRangeError, match="overflows float64"):
                ctx._check_slopes(a0, a1)

    def test_denominators_never_rebuilt(self, default_design):
        _, ctx = digitize_design(default_design, 48000.0)
        dens_before = ctx.section_dens.copy()
        for alpha in np.linspace(-1.0, 1.0, 21):
            ctx.rebuild(float(alpha))
        assert np.array_equal(ctx.section_dens, dens_before)


class TestCoefficientFile:
    def test_field_order(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        obj = json.loads(coefficients_to_json(dfilt))
        assert tuple(obj.keys()) == ("sample_rate_hz", "gain", "sections")
        assert tuple(obj["sections"][0].keys()) == ("b0", "b1", "a1")

    def test_round_trip_exact(self, tmp_path, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        path = tmp_path / "coeffs.json"
        save_coefficients(dfilt, path)
        back = load_coefficients(path)
        assert back.gain == dfilt.gain
        assert back.sample_rate_hz == dfilt.sample_rate_hz
        assert np.array_equal(back.sos, dfilt.sos)
        assert back == dfilt
        assert back != DigitalFilter(sos=dfilt.sos[:-1], gain=dfilt.gain,
                                     sample_rate_hz=dfilt.sample_rate_hz)

    def test_parse_rejects_missing(self):
        with pytest.raises(ValueError):
            coefficients_from_json('{"gain": 1.0, "sections": []}')

    @pytest.mark.parametrize("mangle", [
        lambda obj: obj["sections"][3].pop("a1"),
        lambda obj: obj.update(sections=5),
        lambda obj: obj["sections"].__setitem__(2, None),
        lambda obj: obj["sections"][0].update(b0=float("nan")),
        lambda obj: obj["sections"][0].update(b1=float("inf")),
        lambda obj: obj["sections"][0].update(a1="0.5"),
        lambda obj: obj.update(gain=float("inf")),
        lambda obj: obj.update(sample_rate_hz=None),
    ], ids=["missing-a1", "sections-5", "null-row", "nan-b0", "inf-b1", "string-a1", "inf-gain",
            "null-rate"])
    def test_malformed_file_raises_format_error(self, default_design, mangle):
        obj = json.loads(coefficients_to_json(digitize_design(default_design, 48000.0)[0]))
        mangle(obj)
        with pytest.raises(FileFormatError):
            coefficients_from_json(json.dumps(obj))

    @given(rows=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(allow_nan=False, allow_infinity=False),
                                   st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
                         min_size=1, max_size=12))
    @example(rows=[(-0.0, 5e-324, -2.5e-310), (1e308, -1e308, 0.0)])
    @settings(max_examples=200, deadline=None)
    def test_sections_match_f17_per_float(self, rows):
        dfilt = DigitalFilter(sos=_first_order_sos(*np.array(rows).T), gain=1.0,
                              sample_rate_hz=48000.0)
        sections = ", ".join('{"b0": %s, "b1": %s, "a1": %s}' % tuple(f17(x) for x in row)
                             for row in rows)
        assert f'"sections": [{sections}]\n' in coefficients_to_json(dfilt)

    @pytest.mark.parametrize("text", ["", "[]", '{"sections": [', "Infinity"])
    def test_not_an_object_raises_format_error(self, text):
        with pytest.raises(FileFormatError):
            coefficients_from_json(text)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_file_loads_as_written_or_raises_named_error(self, data):
        # A coefficient file carries no redundancy, so a changed number can
        # be valid; whatever loads must be exactly what the file states.
        dfilt = digitize_design(design_tilt(-0.5, order=8, skip=1, f_min_hz=100.0,
                                            f_max_hz=5000.0), 48000.0)[0]
        text = data.draw(mutated_json(coefficients_to_json(dfilt)))
        try:
            back = coefficients_from_json(text)
        except FilterDesignError:
            return
        obj = json.loads(text)
        assert back.sample_rate_hz == obj["sample_rate_hz"]
        assert back.gain == obj["gain"]
        rows = [[row["b0"], row["b1"], row["a1"]] for row in obj["sections"]]
        assert back.sos[:, (0, 1, 4)].tolist() == rows


class TestLevelingPrecision:
    """The leveling sums are one-sided (not interleaved); over the golden grid
    they still land within 1e-12 in log gain."""

    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    def test_band_center_level_matches_analog(self, fs):
        worst = 0.0
        for design in grid_designs():
            c = prewarp_constant(design.placement.f1_hz, fs)
            proto = prewarped_prototype(design, fs)
            wc = TWO_PI * design.band.center_hz
            wc_prew = c * math.tan(math.pi * design.band.center_hz / fs)
            err = float(proto.log_magnitude(wc_prew) - design.filt.log_magnitude(wc))
            worst = max(worst, abs(err))
        assert worst < 1e-12

    @pytest.mark.parametrize("fs", SAMPLE_RATES)
    def test_rebuild_gain_levels_the_anchor(self, fs):
        worst = 0.0
        clamp = -TWO_PI * 0.499 * fs
        for design in grid_designs():
            _, ctx = digitize_design(design, fs)
            poles = prewarped_prototype(design, fs).poles
            c = ctx.c
            for alpha in (-1.0, design.spec.alpha, 1.0):
                _, _, gain = ctx.rebuild(alpha)
                half = np.abs(ctx.zero_anchors * ctx.ratio ** (-alpha)) / (2.0 * fs)
                zeros = np.where(half < 0.5 * math.pi,
                                 np.maximum(-c * np.tan(half), clamp), clamp)
                anchor = ctx.edges[0 if alpha < 0.0 else 1][0]
                level = AnalogFilter(poles=poles, zeros=zeros, gain=gain)
                worst = max(worst, abs(float(level.log_magnitude(anchor))))
        assert worst < 1e-12
