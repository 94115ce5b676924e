"""Log-magnitude slope analysis on log-frequency grids.

With wt = ln(omega) and G(wt) = ln |H(j e^wt)|, the slope G'(wt) of a filter
with real poles p_n and zeros z_m has the exact closed form

    G'(wt) = sum_m w^2 / (w^2 + z_m^2)  -  sum_n w^2 / (w^2 + p_n^2)

with w = e^wt.  Each factor contributes a smooth step from 0 to +/-1 centered
on its break frequency, equal to +/-1/2 exactly at the break.  The functions
here evaluate the response and the slope, grade the slope error against the
design target over a grid, and probe how the error shrinks as the pole
spacing ratio r approaches 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (TWO_PI, AnalogFilter, BandSpec, PlacementResult, SlopeSpec,
                     make_analog_filter, pole_zero_sum)
from .errors import BadGoodBandError, OutOfRangeError

CSV_HEADER = "omega_rad_s,omega_ln,mag_db,phase_rad,slope_nepers,slope_error"

DB_PER_NEPER = 20.0 / math.log(10.0)

DEFAULT_POINTS_PER_INTERVAL = 64


@dataclass(frozen=True, eq=False)
class BodeGrid:
    """Uniform grid in wt = ln(omega), rad/s, as a read-only array."""

    omega_log: np.ndarray

    @property
    def omega(self) -> np.ndarray:
        return np.exp(self.omega_log)


@dataclass(frozen=True, eq=False)
class SlopeReport:
    """Gridded slope, slope error, and equal-ripple statistics over a band.

    ``filt`` is the graded filter; ``error`` is slope minus the design target;
    ``good_band`` bounds are in ln(rad/s); ``extrema`` holds parabola-refined
    (wt, error) pairs at the interior error extrema.
    """

    filt: AnalogFilter
    grid: BodeGrid
    slope: np.ndarray
    error: np.ndarray
    good_band: tuple[float, float]
    max_abs_error_in_band: float
    extrema: tuple[tuple[float, float], ...]


def freq_response(filt: AnalogFilter, omega):
    """Complex H(j omega) for omega >= 0 (scalar or array).

    Magnitude and angle are accumulated factor by factor in the log domain,
    so intermediate products cannot overflow regardless of order.
    """
    w = np.asarray(omega, dtype=np.float64)
    if np.any(w < 0.0):
        raise OutOfRangeError("omega must be nonnegative")
    h = np.exp(filt.log_magnitude(w)) * np.exp(1j * filt.phase(w))
    return h if w.ndim else complex(h)


def log_mag_slope(filt: AnalogFilter, omega):
    """Closed-form d ln|H| / d ln(omega) at omega > 0 (scalar or array).

    Interleaved accumulation (see pole_zero_sum): a fully canceling array
    (alpha = 0) gives a slope of exactly zero.
    """
    w = np.asarray(omega, dtype=np.float64)
    if np.any(w <= 0.0):
        raise OutOfRangeError("omega must be positive")
    w2 = w * w
    out = pole_zero_sum(filt.poles, filt.zeros, lambda root: w2 / (w2 + root * root),
                        np.zeros(w.shape))
    return out if w.ndim else float(out)


def _refine_extremum(x0: float, h: float, y0: float, y1: float, y2: float) -> tuple[float, float]:
    """Vertex of the parabola through three uniformly spaced samples."""
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return x0 + h, y1
    delta = 0.5 * (y0 - y2) / denom
    x_star = x0 + h * (1.0 + delta)
    y_star = y1 - 0.25 * (y0 - y2) * delta
    return x_star, y_star


def find_error_extrema(
    omega_log: np.ndarray, error: np.ndarray, lo: float, hi: float
) -> tuple[tuple[float, float], ...]:
    """Local extrema of the error strictly inside [lo, hi].

    Extrema are located by sign changes of the discrete first difference and
    refined with a 3-point parabola.
    """
    d = np.diff(error)
    idx = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    h = float(omega_log[1] - omega_log[0])
    out = []
    for i in idx:
        x_star, y_star = _refine_extremum(
            float(omega_log[i]), h, float(error[i]), float(error[i + 1]), float(error[i + 2])
        )
        if lo < x_star < hi:
            out.append((x_star, y_star))
    return tuple(out)


def slope_report(
    filt: AnalogFilter,
    spec: SlopeSpec,
    placement: PlacementResult,
    n: int,
    k_skip: int,
    points_per_interval: int = DEFAULT_POINTS_PER_INTERVAL,
) -> SlopeReport:
    """Grade the achieved slope against the target over the pole-array span.

    The grid covers [ln|p_0| - ln r, ln|p_(n-1)| + ln r] with
    ``points_per_interval`` points per pole interval; the good band runs
    between the k_skip-th and (n-1-k_skip)-th pole break frequencies.
    """
    if int(points_per_interval) < 8:
        raise OutOfRangeError(f"points_per_interval must be at least 8, got {points_per_interval}")
    n = int(n)
    k_skip = int(k_skip)
    if k_skip < 0:
        raise OutOfRangeError(f"skip count must be >= 0, got {k_skip}")
    if k_skip >= n / 2:
        raise BadGoodBandError(f"k_skip={k_skip} leaves no good band for n={n}")

    ln_p0 = math.log(TWO_PI * placement.f1_hz)
    ln_r = placement.delta_p
    start = ln_p0 - ln_r
    npts = (n + 1) * int(points_per_interval) + 1
    omega_log = np.linspace(start, ln_p0 + n * ln_r, npts)
    omega_log.flags.writeable = False
    grid = BodeGrid(omega_log=omega_log)

    slope = log_mag_slope(filt, grid.omega)
    error = slope - spec.total_slope

    lo = ln_p0 + k_skip * ln_r
    hi = ln_p0 + (n - 1 - k_skip) * ln_r
    pad = 1e-9 * ln_r
    in_band = (omega_log >= lo - pad) & (omega_log <= hi + pad)
    max_err = float(np.max(np.abs(error[in_band])))
    extrema = find_error_extrema(omega_log, error, lo, hi)

    return SlopeReport(
        filt=filt,
        grid=grid,
        slope=slope,
        error=error,
        good_band=(lo, hi),
        max_abs_error_in_band=max_err,
        extrema=extrema,
    )


def conjecture_convergence(
    alpha: float,
    r_sequence,
    band: BandSpec,
    margin_nepers: float = 6.0,
) -> list[tuple[float, float, float]]:
    """In-band error against the ideal w^alpha response for a ratio sequence.

    For each r, make_analog_filter builds the ladder -r**k through -1 rad/s,
    extended beyond the band on each side (a ladder past the float range
    raises its InvalidBandError); the level is aligned at the band center, and
    the rows report (r, max relative magnitude error, max phase error vs
    alpha*pi/2) on 32 grid points per pole interval.  Used to confirm that
    both errors fall as r -> 1.

    Truncating the array leaves a residual bias ~ exp(-overhang) at the band
    edges whose prefactor does not shrink with r, while the density-limited
    ripple shrinks super-exponentially in 1/ln r.  A fixed overhang would
    therefore bottom out at the truncation bias, so the array is extended by
    one extra neper per pair-per-neper of density: each side spans at least
    margin_nepers + 1/ln r past the band, keeping truncation subdominant as
    r -> 1.
    """
    spec = SlopeSpec(alpha)
    w_lo = TWO_PI * band.f_min_hz
    w_hi = TWO_PI * band.f_max_hz
    wc = TWO_PI * band.center_hz
    rows = []
    for r in r_sequence:
        if not r > 1.0:
            raise OutOfRangeError(f"every ratio must exceed 1, got {r}")
        ln_r = math.log(r)
        overhang = margin_nepers + 1.0 / ln_r
        k_lo = math.floor((math.log(w_lo) - overhang) / ln_r)
        k_hi = math.ceil((math.log(w_hi) + overhang) / ln_r)
        filt = make_analog_filter(spec, PlacementResult(f1_hz=r**k_lo / TWO_PI, r=r),
                                  k_hi - k_lo + 1)

        n_grid = max(2, int(math.ceil(math.log(w_hi / w_lo) / ln_r)) * 32) + 1
        omega = np.exp(np.linspace(math.log(w_lo), math.log(w_hi), n_grid))

        # Align the level at the band center, then compare against w^alpha.
        offset = filt.log_magnitude(np.array(wc)) - alpha * math.log(wc)
        mag_err = np.abs(np.expm1(filt.log_magnitude(omega) - alpha * np.log(omega) - offset))
        phase_err = np.abs(filt.phase(omega) - alpha * math.pi / 2.0)
        rows.append((float(r), float(np.max(mag_err)), float(np.max(phase_err))))
    return rows


def write_report_csv(report: SlopeReport, metadata: dict[str, str], fh) -> None:
    """Emit the report as CSV; ``metadata`` entries become '#' comment lines.

    The magnitude and phase columns are evaluated here, on the report's grid.
    """
    for key, value in metadata.items():
        fh.write(f"# {key}={value}\n")
    lo, hi = report.good_band
    fh.write(f"# good_band_ln_rad_s=[{lo!r}, {hi!r}]\n")
    fh.write(f"# max_abs_slope_error_in_band={report.max_abs_error_in_band!r}\n")
    fh.write(CSV_HEADER + "\n")
    omega = report.grid.omega
    columns = (
        omega,
        report.grid.omega_log,
        DB_PER_NEPER * report.filt.log_magnitude(omega),
        report.filt.phase(omega),
        report.slope,
        report.error,
    )
    for row in zip(*columns):
        fh.write(",".join(repr(float(v)) for v in row) + "\n")
