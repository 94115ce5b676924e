"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each test prints a single `[acceptance] criterion N ... PASS|FAIL` line with
the measured figure, then asserts.  Run with `-s` (or read the captured
output) to see the lines.
"""

import math
import time

import numpy as np
from scipy.signal import welch

from spectilt import (
    AnalogFilter,
    BandSpec,
    GaussianSource,
    StreamingFilter,
    conjecture_convergence,
    design_tilt,
    digital_response,
    digitize_design,
    log_mag_slope,
    pink_noise,
    prewarped_prototype,
    slope_report,
)
from spectilt.bode import freq_response
from spectilt.design import PlacementResult, SlopeSpec, make_analog_filter, place_poles
from spectilt.digitize import prewarp_constant

TWO_PI = 2.0 * math.pi


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {verdict} — {detail}")


def test_criterion_01_break_point_values():
    filt = AnalogFilter(poles=[-1.0], zeros=[], gain=1.0)
    mag_db = 20.0 * math.log10(abs(freq_response(filt, 1.0)))
    slope = log_mag_slope(filt, 1.0)
    ok = abs(mag_db - (-3.0103)) <= 1e-6 and abs(slope - (-0.5)) <= 1e-9
    _report(1, "break-point values", ok, f"mag {mag_db:.9f} dB, slope {slope:.12f}")
    assert abs(mag_db - (-3.0103)) <= 1e-6
    assert abs(slope - (-0.5)) <= 1e-9


def test_criterion_02_design_system_reproduction():
    res = place_poles(20, 3, BandSpec(20.0, 20000.0))
    # Independent oracle: numerical solve of the 2x2 log-linear system.
    a = np.array([[1.0, 3.0], [1.0, 16.0]])
    b = np.array([math.log(20.0), math.log(20000.0)])
    ln_f1, ln_r = np.linalg.solve(a, b)
    dev_r = abs(res.r / math.exp(ln_r) - 1.0)
    dev_f1 = abs(res.f1_hz / math.exp(ln_f1) - 1.0)
    dev_closed = max(
        abs(res.r / 1000.0 ** (1.0 / 13.0) - 1.0),
        abs(res.f1_hz / (20.0 * 1000.0 ** (-3.0 / 13.0)) - 1.0),
    )
    ok = max(dev_r, dev_f1, dev_closed) < 1e-12
    _report(2, "design-system reproduction", ok,
            f"r={res.r!r}, f1={res.f1_hz!r}, worst rel dev {max(dev_r, dev_f1, dev_closed):.2e}")
    assert dev_r < 1e-12 and dev_f1 < 1e-12 and dev_closed < 1e-12


def test_criterion_03_slope_gradient_suite():
    rng = np.random.default_rng(0xC3)
    t0 = time.time()
    h = 1e-6
    worst = 0.0
    n_designs, n_freqs = 100, 100
    for _ in range(n_designs):
        n = int(rng.integers(2, 48))
        k = int(rng.integers(0, min(4, max(0, (n - 4) // 2)) + 1))
        f_min = float(rng.uniform(0.1, 1000.0))
        band = BandSpec(f_min, f_min * float(rng.uniform(3.0, 1e4)))
        placement = place_poles(n, k, band)
        filt = make_analog_filter(SlopeSpec(float(rng.uniform(-1, 1))), placement, n)
        lo = math.log(abs(filt.poles[0])) - 3.0
        hi = math.log(abs(filt.poles[-1])) + 3.0
        wt = rng.uniform(lo, hi, size=n_freqs)
        closed = log_mag_slope(filt, np.exp(wt))
        fd = (filt.log_magnitude(np.exp(wt + h)) - filt.log_magnitude(np.exp(wt - h))) / (2 * h)
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(3, "slope-formula gradient suite", ok,
            f"{n_designs * n_freqs} samples, max |closed - finite diff| = {worst:.3e}, "
            f"{elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_04_equal_ripple_structure():
    t0 = time.time()
    spec = SlopeSpec(-0.5)
    placement = PlacementResult(f1_hz=1.0 / TWO_PI, r=math.e)
    filt = make_analog_filter(spec, placement, 20)
    rep3 = slope_report(filt, spec, placement, 20, 3)
    rep0 = slope_report(filt, spec, placement, 20, 0)

    values = np.array([e[1] for e in rep3.extrema])
    alternate = bool(np.all(values[:-1] * values[1:] < 0.0))

    # Equal-ripple agreement among extrema clear of the band edges (at least
    # one pole interval inside the good band); the outermost extremum on each
    # side still feels the truncated array edge.
    lo, hi = rep3.good_band
    step = placement.delta_p
    interior = np.abs([e[1] for e in rep3.extrema if lo + step <= e[0] <= hi - step])
    rel = np.abs(np.diff(interior)) / np.maximum(interior[:-1], interior[1:])
    agree = float(np.max(rel))

    ratio = rep0.max_abs_error_in_band / rep3.max_abs_error_in_band
    elapsed = time.time() - t0
    ok = alternate and agree <= 0.25 and ratio >= 5.0 and elapsed < 5.0
    _report(4, "equal-ripple structure", ok,
            f"{len(values)} extrema alternate={alternate}, adjacent agreement "
            f"{agree:.1%} (n={len(interior)}), K0/K3 error ratio {ratio:.0f}x, {elapsed:.1f} s")
    assert alternate
    assert agree <= 0.25
    assert ratio >= 5.0
    assert elapsed < 5.0


def test_criterion_05_convergence_conjecture():
    t0 = time.time()
    band = BandSpec(20.0, 20000.0)
    ratios = [2.0, 1.5, 1.2, 1.1]
    all_ok = True
    details = []
    for alpha in (-0.5, 0.5, -0.2):
        rows = conjecture_convergence(alpha, ratios, band)
        mags = [m for _, m, _ in rows]
        phases = [p for _, _, p in rows]
        mag_mono = all(a > b for a, b in zip(mags, mags[1:]))
        ph_mono = all(a > b for a, b in zip(phases, phases[1:]))
        approaches = phases[-1] < 1e-6
        all_ok &= mag_mono and ph_mono and approaches
        details.append(f"a={alpha:+.1f}: mag {mags[0]:.1e}->{mags[-1]:.1e} ({mag_mono}), "
                       f"phase {phases[0]:.1e}->{phases[-1]:.1e} ({ph_mono})")
        assert mag_mono, f"magnitude column not strictly decreasing for alpha={alpha}"
        assert ph_mono, f"phase column not strictly decreasing for alpha={alpha}"
        assert approaches
    elapsed = time.time() - t0
    _report(5, "convergence conjecture", all_ok and elapsed < 30.0,
            "; ".join(details) + f"; {elapsed:.1f} s")
    assert elapsed < 30.0


def test_criterion_06_bilinear_identity():
    # Sampler stays in the representable regime: a section pole at break f
    # sits 4*pi*f/fs inside the unit circle, so breaks far below 1e-7 * fs
    # would let one ulp of a1 quantization exceed the 1e-9 identity budget.
    rng = np.random.default_rng(0xB1)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 26))
        k = int(rng.integers(0, min(3, (n - 4) // 2) + 1))
        fs = float(rng.uniform(8000.0, 96000.0))
        f_min = float(rng.uniform(5.0, 100.0))
        band = BandSpec(f_min, f_min * float(rng.uniform(4.0, 300.0)))
        design = design_tilt(float(rng.uniform(-1, 1)), order=n, skip=k,
                             f_min_hz=band.f_min_hz, f_max_hz=band.f_max_hz)
        c = prewarp_constant(design.placement.f1_hz, fs)
        proto = prewarped_prototype(design, fs)
        dfilt, _ = digitize_design(design, fs)
        f = rng.uniform(0.005 * fs, 0.495 * fs, size=4)
        hd = digital_response(dfilt, f)
        ha = freq_response(proto, c * np.tan(np.pi * f / fs))
        worst = max(worst, float(np.max(np.abs(hd - ha) / np.abs(ha))))
        f1 = design.placement.f1_hz
        dev_f1 = abs(abs(digital_response(dfilt, f1)) / abs(freq_response(proto, TWO_PI * f1)) - 1.0)
        worst = max(worst, dev_f1)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _report(6, "bilinear identity", ok,
            f"1000 designs, max rel dev {worst:.3e} (incl. f1 match), {elapsed:.1f} s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_07_pink_noise_psd():
    t0 = time.time()
    x = pink_noise(seed=0xF00D, n_samples=1 << 20, fs_hz=48000.0,
                   band=BandSpec(20.0, 20000.0))
    f, p = welch(x, fs=48000.0, window="hann", nperseg=8192, noverlap=4096)
    mask = (f >= 100.0) & (f <= 5000.0)
    a = np.vstack([np.ones(mask.sum()), np.log(f[mask])]).T
    coef, *_ = np.linalg.lstsq(a, np.log(p[mask]), rcond=None)
    slope = float(coef[1])
    db_per_octave = 10.0 * slope * math.log10(2.0)
    elapsed = time.time() - t0
    ok = abs(slope - (-1.0)) <= 0.05 and elapsed < 60.0
    _report(7, "pink-noise PSD", ok,
            f"power slope {slope:.4f} ({db_per_octave:.3f} dB/octave), {elapsed:.1f} s")
    assert abs(slope - (-1.0)) <= 0.05
    assert elapsed < 60.0


def test_criterion_08_time_domain_half_integral():
    t0 = time.time()
    fs = 48000.0
    design = design_tilt(-0.5, f_min_hz=20.0, f_max_hz=20000.0)
    filt = StreamingFilter.for_design(design, fs)
    n = int(0.02 * fs) + 8
    y = filt.process(np.ones(n))
    t = np.arange(n) / fs
    t_lo, t_hi = 5.0 / 20000.0, 0.2 / 20.0
    mask = (t >= t_lo) & (t <= t_hi)
    t_mid = math.sqrt(t_lo * t_hi)
    i_mid = int(np.argmin(np.abs(t - t_mid)))
    scale = y[i_mid] / math.sqrt(t[i_mid])
    # Oracle: half-order integral of the unit step, t^(1/2)/Gamma(3/2); the
    # free scale is fixed at the window midpoint.
    target = scale * np.sqrt(t[mask]) * (math.gamma(1.5) / math.gamma(1.5))
    rel = np.abs(y[mask] - target) / target
    worst = float(np.max(rel))
    elapsed = time.time() - t0
    ok = worst <= 0.05 and elapsed < 10.0
    _report(8, "time-domain half-integral", ok,
            f"max rel dev {worst:.4f} over t in [{t_lo:.2e}, {t_hi:.2e}] s, {elapsed:.1f} s")
    assert worst <= 0.05, (
        "deviation exceeds 5%: the window upper edge 0.2/f_min reaches the design's "
        "low-frequency plateau (see decisions ledger); the shortfall is analog-inherent"
    )
    assert elapsed < 10.0


def test_criterion_09_modulation_robustness():
    t0 = time.time()
    fs = 48000.0
    design = design_tilt(-0.5)
    filt = StreamingFilter.for_design(design, fs)
    a1_before = filt.denominators
    x = GaussianSource(0xA11CE).block(48000)
    rms_in = float(np.sqrt(np.mean(x * x)))
    out = np.empty_like(x)
    for b in range(48000 // 64):
        filt.set_alpha(-1.0 + 2.0 * (b * 64) / 48000.0)
        seg = slice(b * 64, (b + 1) * 64)
        out[seg] = filt.process(x[seg])
    a1_constant = bool(np.array_equal(filt.denominators, a1_before))
    finite = bool(np.all(np.isfinite(out)))
    peak_ratio = float(np.max(np.abs(out)) / rms_in)
    elapsed = time.time() - t0
    ok = a1_constant and finite and peak_ratio < 10.0 and elapsed < 10.0
    _report(9, "modulation robustness", ok,
            f"a1 bit-constant={a1_constant}, finite={finite}, "
            f"peak {peak_ratio:.2f}x input RMS, {elapsed:.1f} s")
    assert a1_constant
    assert finite
    assert peak_ratio < 10.0
    assert elapsed < 10.0


def test_criterion_10_identity_and_integrator_limits():
    filt = StreamingFilter.for_design(design_tilt(0.0), 48000.0)
    x = GaussianSource(0x1D).block(8192)
    dev = float(np.max(np.abs(filt.process(x) - x)))

    tele = design_tilt(-1.0)
    telescopes = bool(np.array_equal(tele.filt.zeros[:-1], tele.filt.poles[1:]))

    ok = dev <= 1e-12 and telescopes
    _report(10, "identity and integrator limits", ok,
            f"alpha=0 max per-sample dev {dev:.2e}; alpha=-1 zero/pole shift exact={telescopes}")
    assert dev <= 1e-12
    assert telescopes
