import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spectilt import (
    AnalogFilter,
    BadGoodBandError,
    BandSpec,
    InvalidBandError,
    OutOfRangeError,
    conjecture_convergence,
    design_tilt,
    log_mag_slope,
    slope_report,
    write_report_csv,
)
from spectilt import bode
from spectilt.bode import (CSV_HEADER, DEFAULT_POINTS_PER_INTERVAL, find_error_extrema,
                           freq_response)
from spectilt.design import (MAX_GRID_POINTS, MAX_ORDER, PlacementResult, SlopeSpec,
                             make_analog_filter, place_poles)

from conftest import random_band
from test_golden import _design, _grid

TWO_PI = 2.0 * math.pi


def random_filter(rng, n_max=40):
    n = int(rng.integers(2, n_max))
    k = int(rng.integers(0, (n - 2) // 2 + 1))
    band = random_band(rng)
    placement = place_poles(n, k, band)
    alpha = float(rng.uniform(-1.0, 1.0))
    return make_analog_filter(SlopeSpec(alpha), placement, n), placement


class TestFreqResponse:
    def test_single_pole_break_point(self):
        filt = AnalogFilter(poles=[-1.0], zeros=[], gain=1.0)
        h = freq_response(filt, 1.0)
        assert abs(h) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert 20.0 * math.log10(abs(h)) == pytest.approx(-3.0103, abs=1e-4)

    def test_zero_slope_is_flat_gain(self):
        filt = make_analog_filter(SlopeSpec(0.0), PlacementResult(3.0, 2.0), 6)
        h = freq_response(filt, np.array([0.1, 10.0, 1e4]))
        assert h == pytest.approx(np.ones(3) * filt.gain, rel=1e-12)
        assert np.all(np.abs(h.imag) < 1e-12)

    def test_half_integrator_drop_at_first_break(self):
        # Octave ladder starting at omega = 1: level drops less than 2 dB at
        # the first break, pulled up by the first zero half an octave above.
        filt = make_analog_filter(SlopeSpec(-0.5), PlacementResult(1.0 / TWO_PI, 2.0), 5)
        flat = abs(freq_response(filt, 1e-6))
        at_break = abs(freq_response(filt, 1.0))
        drop_db = 20.0 * math.log10(at_break / flat)
        assert -2.0 < drop_db < 0.0

    def test_matches_direct_product(self, rng):
        for _ in range(20):
            filt, _ = random_filter(rng, n_max=12)
            w = float(rng.uniform(0.1, 1e5))
            direct = filt.gain * np.prod(1j * w - filt.zeros) / np.prod(1j * w - filt.poles)
            assert freq_response(filt, w) == pytest.approx(direct, rel=1e-10)

    def test_negative_omega_rejected(self):
        filt = AnalogFilter(poles=[-1.0], zeros=[], gain=1.0)
        with pytest.raises(OutOfRangeError):
            freq_response(filt, -1.0)

    def test_log_accumulation_survives_extreme_dynamics(self):
        # 60 poles, no zeros: a naive product would overflow long before
        # the log-domain accumulation does.
        steps = np.full(60, 2.0)
        steps[0] = -1e-3
        filt = AnalogFilter(poles=np.cumprod(steps), zeros=[], gain=1.0)
        lm = filt.log_magnitude(np.array([1e-6, 1e12]))
        assert np.all(np.isfinite(lm))
        assert lm[1] < -1000.0  # |H| itself is far below any double


class TestLogMagSlope:
    def test_single_pole_values(self):
        filt = AnalogFilter(poles=[-1.0], zeros=[], gain=1.0)
        assert log_mag_slope(filt, 1.0) == pytest.approx(-0.5, abs=1e-15)
        assert log_mag_slope(filt, 1e-9) == pytest.approx(0.0, abs=1e-12)
        assert log_mag_slope(filt, 1e9) == pytest.approx(-1.0, abs=1e-12)
        assert log_mag_slope(filt, 10.0) == pytest.approx(-100.0 / 101.0, rel=1e-14)

    def test_finite_difference_oracle(self, rng):
        # Central difference of ln|H| in ln(omega), step 1e-6.
        h = 1e-6
        for _ in range(200):
            filt, _ = random_filter(rng)
            wt = float(rng.uniform(math.log(np.abs(filt.poles[0]) / 50),
                                   math.log(np.abs(filt.poles[-1]) * 50)))
            fd = (filt.log_magnitude(math.exp(wt + h)) - filt.log_magnitude(math.exp(wt - h))) / (2 * h)
            assert log_mag_slope(filt, math.exp(wt)) == pytest.approx(float(fd), abs=1e-6)

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.array([1.0, 0.0]), np.array([1.0, -2.0])],
                             ids=["zero", "negative", "array-zero", "array-negative"])
    def test_non_positive_omega_rejected(self, omega):
        filt = AnalogFilter(poles=[-1.0], zeros=[], gain=1.0)
        with pytest.raises(OutOfRangeError, match="omega must be positive"):
            log_mag_slope(filt, omega)

    def test_superposition(self, rng):
        fa, _ = random_filter(rng, n_max=10)
        fb, _ = random_filter(rng, n_max=10)
        poles = np.sort(np.concatenate([fa.poles, fb.poles]))[::-1]
        zeros = np.sort(np.concatenate([fa.zeros, fb.zeros]))[::-1]
        product = AnalogFilter(poles=poles, zeros=zeros, gain=1.0)
        for w in (0.5, 20.0, 3000.0):
            combined = log_mag_slope(product, w)
            parts = log_mag_slope(fa, w) + log_mag_slope(fb, w)
            assert combined == pytest.approx(parts, abs=1e-12)

    def test_slope_bounds(self, rng):
        for _ in range(30):
            filt, placement = random_filter(rng)
            w = np.exp(rng.uniform(math.log(1e-3), math.log(1e9), size=64))
            s = log_mag_slope(filt, w)
            assert np.all(s >= -len(filt.poles) - 1e-12)
            assert np.all(s <= len(filt.zeros) + 1e-12)

    def test_in_band_slope_near_target(self, default_design):
        d = default_design
        w = TWO_PI * np.exp(np.linspace(math.log(20.0), math.log(20000.0), 300))
        s = log_mag_slope(d.filt, w)
        assert np.all(s > -0.5 - 1.0)
        assert np.all(s < -0.5 + 1.0)
        assert np.max(np.abs(s + 0.5)) < 0.05


def reference_sums(filt, omega):
    """(slope, log magnitude, phase) as plain per-root sums in pole_zero_sum's
    interleaved order, each term a fresh temporary."""
    w = np.asarray(omega, dtype=np.float64)
    w2 = w * w
    slope, log_mag, phase = np.zeros(w.shape), np.full(w.shape, math.log(filt.gain)), np.zeros(w.shape)
    zeros, poles = filt.zeros.tolist(), filt.poles.tolist()
    for k in range(max(len(zeros), len(poles))):
        if k < len(zeros):
            z = zeros[k]
            slope += w2 / (w2 + z * z)
            log_mag += 0.5 * np.log(w2 + z * z)
            phase += np.arctan2(w, -z)
        if k < len(poles):
            p = poles[k]
            slope -= w2 / (w2 + p * p)
            log_mag -= 0.5 * np.log(w2 + p * p)
            phase -= np.arctan2(w, -p)
    return slope, log_mag, phase


def assert_sums_match_reference(filt, omega):
    got = (log_mag_slope(filt, omega), filt.log_magnitude(omega), filt.phase(omega))
    for name, value, expected in zip(("slope", "log_magnitude", "phase"), got,
                                     reference_sums(filt, omega)):
        value = np.asarray(value)
        assert value.dtype == np.float64 and value.shape == expected.shape, name
        assert value.tobytes() == expected.tobytes(), name


class TestBufferedSums:
    """log_mag_slope writes each term into one scratch array per call; its
    sums, like those of log_magnitude and phase, must keep every bit of the
    plain per-root sums."""

    def test_golden_grid_bit_identical(self):
        for _, args in _grid():
            design = _design(*args)
            omega = slope_report(design.filt, design.spec, design.placement, design.n,
                                 design.k_skip, points_per_interval=8).grid.omega
            assert_sums_match_reference(design.filt, omega)
            for w in (omega[0], TWO_PI * design.band.center_hz, omega[-1]):
                assert_sums_match_reference(design.filt, float(w))
            assert type(log_mag_slope(design.filt, float(omega[0]))) is float

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(-1.0, 1.0), n=st.integers(1, 30), integer_part=st.integers(-4, 4),
           f1=st.floats(1e-3, 1e5), r=st.floats(1.01, 100.0), gain=st.floats(1e-3, 1e3),
           omega=st.lists(st.floats(1e-6, 1e9), max_size=50))
    def test_random_ladders_bit_identical(self, alpha, n, integer_part, f1, r, gain, omega):
        ladder = make_analog_filter(SlopeSpec(alpha, integer_part), PlacementResult(f1, r), n)
        filt = AnalogFilter(poles=ladder.poles, zeros=ladder.zeros, gain=gain)
        assert_sums_match_reference(filt, np.array(omega))
        assert_sums_match_reference(filt, np.array(omega[::-1]).reshape(-1, 1))
        for w in omega[:3]:
            assert_sums_match_reference(filt, w)

    def test_successive_calls_return_independent_arrays(self, default_design):
        filt = default_design.filt
        omega = TWO_PI * np.geomspace(20.0, 20000.0, 64)
        for kernel in (lambda w: log_mag_slope(filt, w), filt.log_magnitude, filt.phase):
            first = kernel(omega)
            kept = first.copy()
            second = kernel(omega)
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, omega)
            second[:] = np.nan
            assert first.tobytes() == kept.tobytes()


class TestSlopeReport:
    def test_zero_slope_error_is_zero(self):
        spec = SlopeSpec(0.0)
        placement = PlacementResult(5.0, 2.0)
        filt = make_analog_filter(spec, placement, 8)
        rep = slope_report(filt, spec, placement, 8, 2)
        assert rep.max_abs_error_in_band == 0.0
        assert np.all(rep.error == 0.0)
        assert rep.extrema == ()

    def test_grid_span_and_good_band(self, unit_ladder):
        spec, placement, filt = unit_ladder
        rep = slope_report(filt, spec, placement, 20, 3, points_per_interval=16)
        # p0 = -1, r = e: lattice at integers in ln(omega).
        assert rep.grid.omega_log[0] == pytest.approx(-1.0, abs=1e-12)
        assert rep.grid.omega_log[-1] == pytest.approx(20.0, abs=1e-12)
        assert len(rep.grid.omega_log) == 21 * 16 + 1
        assert rep.grid.omega[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        with pytest.raises(ValueError):
            rep.grid.omega_log[0] = 0.0
        assert rep.good_band == (pytest.approx(3.0, abs=1e-12), pytest.approx(16.0, abs=1e-12))

    def test_alternating_extrema(self, unit_ladder):
        spec, placement, filt = unit_ladder
        rep = slope_report(filt, spec, placement, 20, 3)
        values = np.array([e[1] for e in rep.extrema])
        assert len(values) >= 20
        assert np.all(values[:-1] * values[1:] < 0.0)
        # One negative peak per pole, one positive peak per zero.
        neg = values[values < 0]
        pos = values[values > 0]
        assert abs(len(neg) - len(pos)) <= 1

    def test_equal_ripple_away_from_edges(self, unit_ladder):
        # Extrema at least one pole interval inside the good band sit on the
        # equal-ripple plateau; the outermost extremum on each side still
        # carries visible edge leakage.
        spec, placement, filt = unit_ladder
        rep = slope_report(filt, spec, placement, 20, 3)
        lo, hi = rep.good_band
        step = placement.delta_p
        interior = [e[1] for e in rep.extrema if lo + step <= e[0] <= hi - step]
        assert len(interior) >= 15
        mags = np.abs(interior)
        rel = np.abs(np.diff(mags)) / np.maximum(mags[:-1], mags[1:])
        assert np.max(rel) < 0.25

    def test_skip_shrinks_error(self, unit_ladder):
        spec, placement, filt = unit_ladder
        err3 = slope_report(filt, spec, placement, 20, 3).max_abs_error_in_band
        err0 = slope_report(filt, spec, placement, 20, 0).max_abs_error_in_band
        assert err0 >= 5.0 * err3

    def test_bad_good_band(self, unit_ladder):
        spec, placement, filt = unit_ladder
        with pytest.raises(BadGoodBandError):
            slope_report(filt, spec, placement, 20, 10)

    def test_negative_skip_rejected(self, unit_ladder):
        spec, placement, filt = unit_ladder
        with pytest.raises(OutOfRangeError, match="skip count must be >= 0, got -1"):
            slope_report(filt, spec, placement, 20, -1)

    def test_points_per_interval_bound(self, unit_ladder):
        # Checked before the grid is built, so a one-point grid names the bound.
        spec, placement, filt = unit_ladder
        for points in (0, 4, 7):
            with pytest.raises(OutOfRangeError, match="points_per_interval must be at least 8"):
                slope_report(filt, spec, placement, 20, 3, points_per_interval=points)

    @pytest.mark.parametrize("points", [MAX_GRID_POINTS // 21 + 1, 10**11])
    def test_grid_size_bound(self, unit_ladder, monkeypatch, points):
        # 21 intervals: the least density past the cap, and one whose grid
        # numpy cannot allocate.  Either is rejected before any grid exists.
        spec, placement, filt = unit_ladder
        monkeypatch.setattr(np, "linspace", None)
        with pytest.raises(OutOfRangeError, match=f"holds {21 * points + 1} points, past the "
                                                  f"{MAX_GRID_POINTS} allowed"):
            slope_report(filt, spec, placement, 20, 3, points_per_interval=points)

    def test_max_order_grades_at_the_default_density(self):
        assert (MAX_ORDER + 1) * DEFAULT_POINTS_PER_INTERVAL + 1 <= MAX_GRID_POINTS

    def test_integer_part_shifts_target(self):
        # With an integer part the in-band slope approximates alpha + m.
        spec = SlopeSpec(-0.5, integer_part=-1)
        placement = place_poles(16, 3, BandSpec(100.0, 10000.0))
        filt = make_analog_filter(spec, placement, 16)
        rep = slope_report(filt, spec, placement, 16, 3)
        assert rep.max_abs_error_in_band < 0.1

    def test_error_periodicity(self):
        # Wide ladder: ten nepers beyond the evaluation point on both sides.
        spec = SlopeSpec(-0.5)
        placement = PlacementResult(1.0 / TWO_PI, math.e)
        filt = make_analog_filter(spec, placement, 45)
        mid = 22.0
        for shift in (0.25, 0.5):
            a = log_mag_slope(filt, math.exp(mid + shift))
            b = log_mag_slope(filt, math.exp(mid + shift + 1.0))
            assert a == pytest.approx(b, abs=1e-6)


class TestExtremaRefinement:
    def test_parabola_vertex_recovered(self):
        x = np.linspace(0.0, 1.0, 101)
        y = -((x - 0.503) ** 2)
        found = find_error_extrema(x, y, 0.0, 1.0)
        assert len(found) == 1
        assert found[0][0] == pytest.approx(0.503, abs=1e-9)
        assert found[0][1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("y", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)], ids=["flat", "linear"])
    def test_no_curvature_returns_the_middle_sample(self, y):
        # y0 - 2*y1 + y2 == 0: no vertex, so the middle sample stands.
        assert bode._refine_extremum(2.0, 0.5, *y) == (2.5, y[1])


class TestConjectureConvergence:
    BAND = BandSpec(20.0, 20000.0)

    def test_zero_slope_exact(self):
        rows = conjecture_convergence(0.0, [2.0, 1.5], self.BAND)
        for _, mag_err, phase_err in rows:
            assert mag_err < 1e-12
            assert phase_err < 1e-12

    def test_monotone_for_half_integrator(self):
        rows = conjecture_convergence(-0.5, [2.0, 1.5, 1.2, 1.1], self.BAND)
        mags = [m for _, m, _ in rows]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_full_integrator_matches_one_over_omega(self):
        # Telescoped array: in-band response is 1/omega up to truncation.
        rows = conjecture_convergence(-1.0, [2.0], self.BAND)
        _, mag_err, phase_err = rows[0]
        assert mag_err < 1e-3
        assert phase_err == pytest.approx(0.0, abs=2e-3) or phase_err < 2e-3

    def test_rows_positive_and_ordered(self):
        # A band whose edges fall between the rungs of the unit ladder.
        rows = conjecture_convergence(0.3, [1.8, 1.4], BandSpec(50.0, 5000.0))
        assert [r for r, _, _ in rows] == [1.8, 1.4]
        assert all(m >= 0.0 and p >= 0.0 for _, m, p in rows)

    def test_bad_ratio_rejected(self):
        with pytest.raises(OutOfRangeError):
            conjecture_convergence(0.3, [0.9], self.BAND)

    def test_bad_slope_rejected(self):
        with pytest.raises(OutOfRangeError, match="alpha must lie in"):
            conjecture_convergence(1.5, [], self.BAND)

    @pytest.mark.parametrize("ratio, poles", [(1.0000001, 200000208844017), (1.005, 84193)])
    def test_ladder_past_max_order_rejected_before_it_is_built(self, monkeypatch, ratio, poles):
        def build(*args):
            raise AssertionError("the ladder was built")

        monkeypatch.setattr(bode, "make_analog_filter", build)
        with pytest.raises(OutOfRangeError, match=f"ratio {ratio} needs a ladder of {poles} "):
            conjecture_convergence(-0.5, [2.0, ratio], self.BAND)

    def test_ladder_sizes_either_side_of_max_order(self, monkeypatch):
        class Built(Exception):
            pass

        def build(spec, placement, n):
            raise Built(n)

        monkeypatch.setattr(bode, "make_analog_filter", build)
        for ratio, poles in [(1.1, 421), (1.02, 6056)]:
            with pytest.raises(Built) as built:
                conjecture_convergence(-0.5, [ratio], self.BAND)
            assert built.value.args == (poles,)
        with pytest.raises(OutOfRangeError, match="ratio 1.015 needs a ladder of 10294 "):
            conjecture_convergence(-0.5, [1.015], self.BAND)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ladder_past_float_range_rejected(self):
        # The ladder comes from make_analog_filter, whose band check stops a
        # ladder whose squared frequencies would overflow.
        with pytest.raises(InvalidBandError, match="band too wide"):
            conjecture_convergence(-0.5, [1e10], BandSpec(1.0, 1e200))


class TestCsv:
    def test_header_and_shape(self, unit_ladder):
        spec, placement, filt = unit_ladder
        rep = slope_report(filt, spec, placement, 20, 3, points_per_interval=8)
        buf = io.StringIO()
        write_report_csv(rep, {"alpha": "-0.5"}, buf)
        lines = buf.getvalue().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("alpha=-0.5" in c for c in comments)
        assert any("good_band_ln_rad_s" in c for c in comments)
        assert any("max_abs_slope_error_in_band" in c for c in comments)
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == CSV_HEADER
        rows = lines[header_idx + 1 :]
        assert len(rows) == len(rep.grid.omega_log)
        first = [float(v) for v in rows[0].split(",")]
        assert len(first) == 6
        assert first[0] == pytest.approx(math.exp(first[1]), rel=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.7])
    def test_magnitude_and_phase_match_direct_product(self, alpha):
        design = design_tilt(alpha, order=12)
        filt = design.filt
        rep = slope_report(filt, design.spec, design.placement, design.n, design.k_skip,
                           points_per_interval=8)
        buf = io.StringIO()
        write_report_csv(rep, {}, buf)
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in buf.getvalue().splitlines()[3:]])
        assert len(rows) == len(rep.grid.omega_log)
        jw = 1j * rows[:, 0]
        h = filt.gain * np.prod(jw[:, None] - filt.zeros, axis=1) / np.prod(
            jw[:, None] - filt.poles, axis=1)
        assert np.max(np.abs(rows[:, 2] - 20.0 * np.log10(np.abs(h)))) < 1e-9
        assert np.max(np.abs(np.exp(1j * rows[:, 3]) - h / np.abs(h))) < 1e-12
