import json
import math
import warnings
from collections.abc import Hashable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectilt import (
    AnalogFilter,
    BandSpec,
    DegenerateOrderError,
    FilterDesignError,
    InvalidBandError,
    OutOfRangeError,
    PoleOnAxisError,
    design_from_json,
    design_tilt,
    design_to_json,
    digitize_design,
    load_design,
    prewarped_prototype,
    save_design,
    slope_report,
)
from spectilt.design import (
    PlacementResult,
    SlopeSpec,
    _center_gain,
    make_analog_filter,
    place_poles,
)
from spectilt.errors import DesignMismatchError, FileFormatError
from spectilt.serialize import f17, float_list

from conftest import mutated_json, random_band

TWO_PI = 2.0 * math.pi


class TestSlopeSpec:
    def test_alpha_bounds(self):
        SlopeSpec(-1.0)
        SlopeSpec(1.0)
        with pytest.raises(OutOfRangeError):
            SlopeSpec(1.0000001)
        with pytest.raises(OutOfRangeError):
            SlopeSpec(float("nan"))

    def test_integer_part_guard(self):
        assert SlopeSpec(0.5, integer_part=-4).total_slope == -3.5
        with pytest.raises(OutOfRangeError):
            SlopeSpec(0.0, integer_part=5)


class TestBandSpec:
    def test_inverted_band_rejected(self):
        with pytest.raises(InvalidBandError):
            BandSpec(100.0, 100.0)
        with pytest.raises(InvalidBandError):
            BandSpec(-1.0, 100.0)

    def test_center_is_geometric(self):
        band = BandSpec(20.0, 20000.0)
        assert band.center_hz == pytest.approx(math.sqrt(20.0 * 20000.0), rel=1e-15)

    @pytest.mark.parametrize("f_min, f_max", [(1.5e-162, 1.6e-162), (1e-160, 1e-150)],
                             ids=["product-0", "product-subnormal"])
    def test_center_of_underflowing_band_rejected(self, f_min, f_max):
        # The band itself is valid; only its center, which would lose bits
        # or be 0, is refused.
        band = BandSpec(f_min, f_max)
        with pytest.raises(InvalidBandError, match="band too low"):
            band.center_hz

    def test_center_at_smallest_normal_product(self):
        band = BandSpec(1e-154, 3e-154)
        assert band.center_hz == math.sqrt(1e-154 * 3e-154) > 0.0


class TestPlacement:
    def test_two_pole_band_edges(self):
        # System degenerates to f1 = f_min, r = f_max/f_min.
        res = place_poles(2, 0, BandSpec(1.0, 10.0))
        assert res.f1_hz == pytest.approx(1.0, rel=1e-15)
        assert res.r == pytest.approx(10.0, rel=1e-15)

    def test_audio_design_closed_form(self):
        res = place_poles(20, 3, BandSpec(20.0, 20000.0))
        assert res.r == pytest.approx(1000.0 ** (1.0 / 13.0), rel=1e-12)
        assert res.f1_hz == pytest.approx(20.0 * res.r**-3, rel=1e-12)

    def test_against_linear_system_solve(self):
        # Independent oracle: solve the 2x2 log-linear system directly.
        n, k = 20, 3
        res = place_poles(n, k, BandSpec(20.0, 20000.0))
        a = np.array([[1.0, k], [1.0, n - k - 1]])
        b = np.array([math.log(20.0), math.log(20000.0)])
        ln_f1, ln_r = np.linalg.solve(a, b)
        assert res.f1_hz == pytest.approx(math.exp(ln_f1), rel=1e-12)
        assert res.r == pytest.approx(math.exp(ln_r), rel=1e-12)

    def test_degenerate_order(self):
        with pytest.raises(DegenerateOrderError):
            place_poles(5, 2, BandSpec(1.0, 10.0))
        with pytest.raises(DegenerateOrderError):
            place_poles(1, 0, BandSpec(1.0, 10.0))

    def test_boundary_equations_random_draws(self, rng):
        # Both defining equations reproduced to 1e-12 relative, 1000 draws.
        for _ in range(1000):
            n = int(rng.integers(2, 64))
            k = int(rng.integers(0, max((n - 2) // 2, 0) + 1))
            band = random_band(rng)
            res = place_poles(n, k, band)
            ln_f1, ln_r = math.log(res.f1_hz), math.log(res.r)
            lo = ln_f1 + k * ln_r
            hi = ln_f1 + (n - k - 1) * ln_r
            assert lo == pytest.approx(math.log(band.f_min_hz), rel=1e-12, abs=1e-12)
            assert hi == pytest.approx(math.log(band.f_max_hz), rel=1e-12, abs=1e-12)

    def test_spacing_fields(self):
        res = place_poles(12, 2, BandSpec(10.0, 1000.0))
        assert res.delta_p == math.log(res.r)
        # The zero array sits -alpha * delta_p nepers from the pole array.
        for alpha in (-0.5, 0.25):
            filt = make_analog_filter(SlopeSpec(alpha), res, 12)
            offsets = np.log(filt.zeros / filt.poles)
            assert offsets == pytest.approx(np.full(12, -alpha * res.delta_p), rel=1e-12)

    def test_placement_validation(self):
        with pytest.raises(OutOfRangeError):
            PlacementResult(f1_hz=0.0, r=2.0)
        with pytest.raises(OutOfRangeError):
            PlacementResult(f1_hz=1.0, r=1.0)


class TestAnalogFilter:
    def test_construction_guards(self):
        with pytest.raises(PoleOnAxisError):
            AnalogFilter(poles=[-1.0, 0.0], zeros=[], gain=1.0)
        with pytest.raises(OutOfRangeError):
            AnalogFilter(poles=[-1.0, 2.0], zeros=[], gain=1.0)
        with pytest.raises(OutOfRangeError):
            AnalogFilter(poles=[-2.0, -1.0], zeros=[], gain=1.0)  # magnitude must not decrease
        with pytest.raises(OutOfRangeError):
            AnalogFilter(poles=[-1.0], zeros=[], gain=0.0)

    def test_arrays_read_only(self):
        filt = AnalogFilter(poles=[-1.0, -2.0], zeros=[-1.5], gain=1.0)
        with pytest.raises(ValueError):
            filt.poles[0] = -3.0

    def test_two_dimensional_roots_rejected(self):
        with pytest.raises(OutOfRangeError, match=r"poles must be a one-dimensional array"):
            AnalogFilter(poles=[[-1.0, -2.0]], zeros=[[-1.0, -2.0]])
        with pytest.raises(OutOfRangeError, match=r"zeros must be a one-dimensional array"):
            AnalogFilter(poles=[-1.0, -2.0], zeros=[[-1.0, -2.0]])

    def test_scalar_roots_rejected(self):
        with pytest.raises(OutOfRangeError, match=r"poles must be a one-dimensional array"):
            AnalogFilter(poles=-1.0, zeros=-1.0)
        with pytest.raises(OutOfRangeError, match=r"zeros must be a one-dimensional array"):
            AnalogFilter(poles=[-1.0], zeros=-1.0)

    @staticmethod
    def _three_checks(name, arr):
        """The root checks as three separate scans, in order: the class and
        message of the first that fails, or None for an array that passes."""
        if (arr == 0.0).any():
            return PoleOnAxisError, f"{name} at s = 0 is not representable"
        if not ((arr < 0.0) & (arr > -np.inf)).all():
            return OutOfRangeError, f"every {name} must be a finite negative real"
        if (arr[1:] > arr[:-1]).any():
            return OutOfRangeError, f"{name}s must be ordered by increasing magnitude"
        return None

    _ROOTS = st.lists(st.sampled_from([-3.0, -2.0, -1.0, -1.0, -1e-300, -0.0, 0.0, math.nan,
                                       math.inf, -math.inf, 1e-300, 2.0]), max_size=6)

    @settings(max_examples=400, deadline=None)
    @given(poles=_ROOTS, zeros=_ROOTS, sort_poles=st.booleans(), sort_zeros=st.booleans())
    @example(poles=[-1.0, -0.0], zeros=[], sort_poles=False, sort_zeros=False)
    @example(poles=[-1.0], zeros=[-1.0, math.nan, -3.0], sort_poles=False, sort_zeros=False)
    @example(poles=[-1.0, -2.0, -math.inf], zeros=[], sort_poles=False, sort_zeros=False)
    @example(poles=[-0.1, -0.1, -1.0, -2.0], zeros=[-0.1, -0.1, -1.5], sort_poles=False,
             sort_zeros=False)
    @example(poles=[-0.1, -1.0, -0.1], zeros=[], sort_poles=False, sort_zeros=False)
    def test_one_pass_check_matches_three_checks(self, poles, zeros, sort_poles, sort_zeros):
        # Sorting by decreasing value orders by increasing magnitude where
        # every root is negative, and leaves whatever is not for the checks.
        arrays = [np.sort(np.array(roots, dtype=np.float64))[::-1] if sort else
                  np.array(roots, dtype=np.float64)
                  for roots, sort in ((poles, sort_poles), (zeros, sort_zeros))]
        expected = (self._three_checks("pole", arrays[0])
                    or self._three_checks("zero", arrays[1]))
        if expected is None:
            filt = AnalogFilter(poles=arrays[0], zeros=arrays[1])
            assert np.array_equal(filt.poles, arrays[0])
            assert np.array_equal(filt.zeros, arrays[1])
            return
        with pytest.raises(FilterDesignError) as info:
            AnalogFilter(poles=arrays[0], zeros=arrays[1])
        assert (type(info.value), str(info.value)) == expected

    def test_each_stage_checks_its_filter_once(self, monkeypatch):
        # design_tilt levels its ladder before wrapping it, and a design file
        # re-derives through design_tilt: one AnalogFilter check per stage.
        # Digitizing maps the prewarped arrays and builds no AnalogFilter.
        calls = []
        check = AnalogFilter.__post_init__

        def counted(filt):
            calls.append(1)
            check(filt)

        monkeypatch.setattr(AnalogFilter, "__post_init__", counted)
        design = design_tilt(-0.5, integer_part=-1)
        after_design = len(calls)
        design_from_json(design_to_json(design))
        after_load = len(calls)
        digitize_design(design, 48000.0)
        assert [after_design, after_load - after_design, len(calls) - after_load] == [1, 1, 0]


class TestMakeAnalogFilter:
    def test_zero_slope_cancels_exactly(self):
        filt = make_analog_filter(SlopeSpec(0.0), PlacementResult(5.0, 3.0), 5)
        assert np.array_equal(filt.poles, filt.zeros)

    def test_half_integrator_octave_values(self):
        # p0 = -1 via f1 = 1/(2 pi); zeros sit sqrt(2) above the poles.
        filt = make_analog_filter(SlopeSpec(-0.5), PlacementResult(1.0 / TWO_PI, 2.0), 3)
        assert filt.poles == pytest.approx([-1.0, -2.0, -4.0], rel=1e-15)
        assert filt.zeros == pytest.approx(
            [-1.41421356237310, -2.82842712474619, -5.65685424949238], rel=1e-12
        )

    def test_full_integrator_telescopes_exactly(self):
        filt = make_analog_filter(SlopeSpec(-1.0), PlacementResult(1.0 / TWO_PI, 2.0), 3)
        assert np.array_equal(filt.zeros[:-1], filt.poles[1:])

    def test_needs_a_pole(self):
        with pytest.raises(OutOfRangeError, match="need at least one pole, got n=0"):
            make_analog_filter(SlopeSpec(-0.5), PlacementResult(5.0, 3.0), 0)

    def test_constant_ratio(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            placement = place_poles(n, 0, random_band(rng))
            filt = make_analog_filter(SlopeSpec(float(rng.uniform(-1, 1))), placement, n)
            ratios = filt.poles[1:] / filt.poles[:-1]
            assert np.all(np.abs(ratios / placement.r - 1.0) < 1e-12)

    @given(
        alpha=st.floats(min_value=-1.0, max_value=1.0).filter(
            lambda a: a == 0.0 or abs(a) > 1e-9
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_interlacing(self, alpha):
        placement = PlacementResult(2.0, 2.5)
        filt = make_analog_filter(SlopeSpec(alpha), placement, 6)
        p = np.abs(filt.poles)
        z = np.abs(filt.zeros)
        if alpha == 0.0:
            assert np.array_equal(filt.poles, filt.zeros)
        elif alpha == -1.0:
            assert np.array_equal(filt.zeros[:-1], filt.poles[1:])
        elif alpha == 1.0:
            assert filt.zeros[1:] == pytest.approx(filt.poles[:-1], rel=1e-12)
        elif alpha < 0.0:
            assert np.all(p < z)
            assert np.all(z[:-1] < p[1:])
        else:
            assert np.all(z < p)

    def test_break_frequency_coverage(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 40))
            k = int(rng.integers(0, (n - 2) // 2 + 1))
            band = random_band(rng)
            placement = place_poles(n, k, band)
            filt = make_analog_filter(SlopeSpec(-0.4), placement, n)
            breaks = np.abs(filt.poles) / TWO_PI
            assert breaks[k] == pytest.approx(band.f_min_hz, rel=1e-9)
            assert breaks[n - 1 - k] == pytest.approx(band.f_max_hz, rel=1e-9)

    def test_integer_part_appends_extras(self):
        placement = PlacementResult(100.0, 2.0)
        down = make_analog_filter(SlopeSpec(-0.5, integer_part=-2), placement, 4)
        assert len(down.poles) == 6
        assert len(down.zeros) == 4
        extra = -TWO_PI * placement.f1_hz / 100.0
        assert np.all(down.poles[:2] == extra)

        up = make_analog_filter(SlopeSpec(0.5, integer_part=1), placement, 4)
        assert len(up.zeros) == 5
        assert np.min(np.abs(up.zeros)) == pytest.approx(-extra, rel=1e-15)

    def test_widest_band_sums_stay_finite(self):
        # The top pole times r (1e153 Hz here: f1 * r**3 with r = sqrt(f_max))
        # may reach half of sqrt(float max), where a sum of two squares stays
        # finite all the way up the bode grid.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (-1.0, 1.0):
                design = design_tilt(alpha, order=3, skip=0, f_min_hz=1.0, f_max_hz=1e102)
                report = slope_report(design.filt, design.spec, design.placement, 3, 0)
                assert np.isfinite(report.slope).all()
                assert np.isfinite(design.filt.log_magnitude(report.grid.omega)).all()
        with pytest.raises(InvalidBandError, match="band too wide"):
            design_tilt(-0.5, order=3, skip=0, f_min_hz=1.0, f_max_hz=1.1e102)


class TestNormalizeGain:
    def test_zero_slope_gain_is_one(self):
        filt = make_analog_filter(SlopeSpec(0.0), PlacementResult(5.0, 3.0), 5)
        assert _center_gain(filt.poles, filt.zeros, BandSpec(1.0, 100.0)) == 1.0

    def test_single_pole_center_at_unit_omega(self):
        # Band center at omega = 1: |1/(j+1)| = 1/sqrt(2), so gain = sqrt(2).
        filt = AnalogFilter(poles=[-1.0], zeros=[], gain=1.0)
        band = BandSpec(1.0 / (4.0 * math.pi), 1.0 / math.pi)
        assert _center_gain(filt.poles, filt.zeros, band) == pytest.approx(math.sqrt(2.0),
                                                                            rel=1e-14)

    def test_band_center_unity_direct_product(self, default_design):
        # Independent oracle: plain complex products, no log accumulation.
        filt = default_design.filt
        wc = TWO_PI * default_design.band.center_hz
        h = filt.gain * np.prod(1j * wc - filt.zeros) / np.prod(1j * wc - filt.poles)
        assert abs(h) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.37, 1.0])
    @pytest.mark.parametrize("integer_part", [-2, 0, 1])
    def test_design_tilt_levels_like_normalize_gain(self, alpha, integer_part):
        # design_tilt levels the bare ladder; the gain must keep every bit.
        design = design_tilt(alpha, order=12, skip=2, integer_part=integer_part)
        ladder = make_analog_filter(design.spec, design.placement, 12)
        filt = AnalogFilter(ladder.poles, ladder.zeros,
                            _center_gain(ladder.poles, ladder.zeros, design.band))
        assert design.filt == filt
        assert design.filt.gain == filt.gain

    def test_root_at_origin_named_before_the_gain(self):
        # The zeros of this subnormal ladder underflow to -0.0, and the band
        # center's square to 0, so the gain's log fails too: the root is named.
        with pytest.raises(PoleOnAxisError, match="zero at s = 0"):
            design_tilt(1.0, order=21, skip=3, f_min_hz=5e-318, f_max_hz=5e-290)

    @pytest.mark.parametrize("order, skip, f_min, f_max, integer_part, center", [
        (4, 1, 1e-200, 1e-180, -1, "1e-190"),
        (21, 3, 5e-318, 5e-290, 0, "5e-304"),
        (4, 0, 1.5e-162, 1.6e-162, 0, "1.55e-162"),
    ])
    def test_underflowing_band_named(self, order, skip, f_min, f_max, integer_part, center):
        # f_min*f_max underflows to 0, so the band center has no value: the
        # band is named, not a bare math error, nor leveled at DC as the last
        # row, whose squared center alone would not underflow, once was.
        # _center_gain on the same ladder names it the same way.
        match = f"band too low: at its center, {center} Hz"
        with pytest.raises(InvalidBandError, match=match):
            design_tilt(-0.5, order=order, skip=skip, f_min_hz=f_min, f_max_hz=f_max,
                        integer_part=integer_part)
        band = BandSpec(f_min, f_max)
        ladder = make_analog_filter(SlopeSpec(-0.5, integer_part), place_poles(order, skip, band),
                                    order)
        with pytest.raises(InvalidBandError, match=match):
            _center_gain(ladder.poles, ladder.zeros, band)


    def test_overflowing_gain_named(self):
        # Three integer-part poles far below a high band: the center level
        # needs a gain of e^723, past the float range.
        with pytest.raises(OutOfRangeError, match=r"e\^723.27, overflows float64"):
            design_tilt(0.0, order=2, skip=0, f_min_hz=2.19e101, f_max_hz=2.96e106,
                        integer_part=-3)


class TestFloatList:
    EDGES = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
             1.7976931348623157e308, 0.1, 1.0 / 3.0]

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats() | st.sampled_from(EDGES), max_size=40))
    @example(xs=EDGES)
    @example(xs=[])
    def test_one_call_matches_f17_per_float(self, xs):
        assert float_list(xs) == "[" + ", ".join(f17(x) for x in xs) + "]"


class TestDesignFile:
    FIELDS = (
        "alpha",
        "integer_part",
        "n",
        "k_skip",
        "f_min_hz",
        "f_max_hz",
        "f1_hz",
        "r",
        "poles_rad_s",
        "zeros_rad_s",
        "gain",
    )

    def test_field_names_and_order(self, default_design):
        obj = json.loads(design_to_json(default_design))
        assert tuple(obj.keys()) == self.FIELDS

    def test_round_trip_exact(self, default_design):
        back = design_from_json(design_to_json(default_design))
        assert back.spec == default_design.spec
        assert back.band == default_design.band
        assert back.n == default_design.n and back.k_skip == default_design.k_skip
        assert back.placement.f1_hz == default_design.placement.f1_hz
        assert back.placement.r == default_design.placement.r
        assert np.array_equal(back.filt.poles, default_design.filt.poles)
        assert np.array_equal(back.filt.zeros, default_design.filt.zeros)
        assert back.filt.gain == default_design.filt.gain

    def test_file_round_trip(self, tmp_path, default_design):
        path = tmp_path / "design.json"
        save_design(default_design, path)
        back = load_design(path)
        assert np.array_equal(back.filt.poles, default_design.filt.poles)

    def test_missing_field_rejected(self, default_design):
        obj = json.loads(design_to_json(default_design))
        del obj["gain"]
        with pytest.raises(ValueError, match="gain"):
            design_from_json(json.dumps(obj))

    def test_integer_part_round_trip(self):
        design = design_tilt(0.25, order=8, skip=1, integer_part=-2)
        back = design_from_json(design_to_json(design))
        assert back.spec.integer_part == -2
        assert np.array_equal(back.filt.poles, design.filt.poles)
        assert np.array_equal(back.geometric_poles, design.geometric_poles)

    def test_load_returns_the_re_derived_design(self):
        design = design_tilt(-0.9837, order=20, skip=3, integer_part=-2)
        back = design_from_json(design_to_json(design))
        assert design_to_json(back) == design_to_json(design)

    @pytest.mark.parametrize("field, value", [
        ("n", 25),
        ("zeros_rad_s", "first 5"),
        ("r", 3.0),
        ("f1_hz", "next float"),
        ("gain", 1.0),
        ("poles_rad_s", "reversed"),
        ("alpha", -0.25),
        ("integer_part", 1),
        ("k_skip", 2),
        ("f_min_hz", "next float"),
        ("f_max_hz", "next float"),
        ("zeros_rad_s", "one ulp"),
    ])
    def test_inconsistent_file_rejected(self, default_design, field, value):
        obj = json.loads(design_to_json(default_design))
        if value == "first 5":
            value = obj[field][:5]
        elif value == "next float":
            value = float(np.nextafter(obj[field], np.inf))
        elif value == "one ulp":
            value = obj[field][:7] + [float(np.nextafter(obj[field][7], 0.0))] + obj[field][8:]
        elif value == "reversed":
            value = obj[field][::-1]
        obj[field] = value
        with pytest.raises(DesignMismatchError):
            design_from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", [
        "", "[1, 2]", '{"alpha": ', "NaN",
    ])
    def test_not_an_object_rejected(self, text):
        with pytest.raises(FileFormatError):
            design_from_json(text)

    @pytest.mark.parametrize("field, value", [
        ("alpha", "-0.5"), ("alpha", None), ("alpha", float("nan")), ("n", 20.0),
        ("n", True), ("k_skip", [3]), ("f_max_hz", float("inf")), ("f_min_hz", 10**400),
    ])
    def test_wrong_types_rejected(self, default_design, field, value):
        obj = json.loads(design_to_json(default_design))
        obj[field] = value
        with pytest.raises(FileFormatError):
            design_from_json(json.dumps(obj))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_file_loads_identically_or_raises_named_error(self, data):
        # Inputs and derived arrays are redundant, so a fault either raises or
        # leaves every derived number bit-identical.  An alpha or band edge
        # moved by an ulp can re-derive the very same arrays; such a file is
        # consistent and loads with its own, equally close, inputs.
        design = design_tilt(-0.5, order=12, skip=2, f_min_hz=50.0, f_max_hz=5000.0,
                             integer_part=-1)
        text = data.draw(mutated_json(design_to_json(design)))
        try:
            back = design_from_json(text)
        except FilterDesignError:
            return
        assert (back.n, back.k_skip, back.spec.integer_part) == (12, 2, -1)
        assert back.placement == design.placement
        assert np.array_equal(back.filt.poles, design.filt.poles)
        assert np.array_equal(back.filt.zeros, design.filt.zeros)
        assert back.filt.gain == design.filt.gain
        assert back.spec.alpha == pytest.approx(-0.5, rel=1e-12)
        assert back.band.f_min_hz == pytest.approx(50.0, rel=1e-12)
        assert back.band.f_max_hz == pytest.approx(5000.0, rel=1e-12)


class TestValueEquality:
    def test_design_file_round_trip_compares_equal(self, default_design):
        back = design_from_json(design_to_json(default_design))
        assert back == default_design
        assert back.filt == default_design.filt
        other = design_tilt(-0.25)
        assert other != default_design
        assert other.filt != default_design.filt

    def test_eq_returns_bool_for_every_array_dataclass(self, default_design):
        def parts(design):
            dfilt, ctx = digitize_design(design, 48000.0)
            report = slope_report(design.filt, design.spec, design.placement,
                                  design.n, design.k_skip)
            proto = prewarped_prototype(design, 48000.0)
            return [design, design.filt, dfilt, proto], [ctx, report, report.grid]

        by_value, by_identity = parts(default_design)
        value_twins, identity_twins = parts(design_tilt(-0.5))
        for a, b in zip(by_value, value_twins):
            assert (a == b) is True
            assert (a != b) is False
            # A foreign type is not ours to compare: Python falls back to identity.
            assert type(a).__eq__(a, "x") is NotImplemented
            assert (a == "x") is False
            assert (a != "x") is True
        for a, b in zip(by_identity, identity_twins):
            assert (a == a) is True
            assert (a == b) is False

    def test_array_types_are_unhashable(self, default_design):
        dfilt, _ = digitize_design(default_design, 48000.0)
        for obj in (default_design, default_design.filt, dfilt):
            name = type(obj).__name__
            assert not isinstance(obj, Hashable), name
            with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
                hash(obj)
