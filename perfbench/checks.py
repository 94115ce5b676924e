"""Checks of spectilt's outputs against computations made apart from it.

Nothing here imports spectilt.  Each check reads the program's files and
arrays as plain JSON, CSV and float64 data and compares them with the closed
form of the method (README and the module docstrings of the program), with
an mpmath finite difference, or with a cascade built here from scipy's
`sosfilt`.  Every check returns {name: (ok, detail)}; run.py merges them by
name over all of a run's outputs, and selftest.py shows each one failing on
a perturbed output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np
from scipy.signal import sosfilt, welch

TWO_PI = 2.0 * math.pi
# Prewarped zero breaks at or above fs/2 are pinned to this fraction of fs
# (the program's documented Nyquist clamp).
ZERO_CLAMP_FRACTION = 0.499

REL_EXACT = 1e-12  # closed-form ladder relations: a few ulps of cumulative products
ABS_LEVEL = 1e-9  # ln|H| and slope comparisons
IDENTITY_TOL = 1e-9  # bilinear identity, as acceptance criterion 6 states it
STREAM_TOL = 1e-9  # output vs reference cascade, relative to the peak output
PSD_TOL = 0.05  # Welch power-slope tolerance, as acceptance criterion 7 states it
PSD_FIT_HZ = (100.0, 5000.0)
SLOPE_GRID_POINTS = 2048  # log-spaced in-band points for the delivered slope error
FINE_PPI = 512  # points per pole interval for the independent in-band maximum
# A grid maximum falls short of the true one by up to (pi/ppi)^2/2 of it for a
# ripple of one pole interval: 1.2e-3 at the program's 64 points per interval,
# 1.9e-5 at FINE_PPI.  The bracket below allows for both, with margin.
MAX_GRID_DEFICIT = 5e-3
FINE_GRID_DEFICIT = 1e-4


# ---------------------------------------------------------------- helpers


def geometric_ladder(alpha, n, k, f_min, f_max):
    """Closed-form (r, f1, poles, zeros) for n pairs with the k-th break at
    f_min and the (n-1-k)-th at f_max; z_k = p_k * r**(-alpha)."""
    r = (f_max / f_min) ** (1.0 / (n - 1 - 2 * k))
    f1 = f_min / r**k
    poles = -TWO_PI * f1 * r ** np.arange(n, dtype=np.float64)
    return r, f1, poles, poles * r ** (-alpha)


def log_abs_h(poles, zeros, gain, omega: float) -> float:
    w2 = omega * omega
    terms = [math.log(gain)]
    terms += [0.5 * math.log(w2 + z * z) for z in zeros]
    terms += [-0.5 * math.log(w2 + p * p) for p in poles]
    return math.fsum(terms)


def mp_slope(poles, zeros, gain, u: float) -> float:
    """d ln|H(j e^u)| / du by a central difference in 40-digit arithmetic."""
    with mpmath.workdps(40):
        z2 = [mpmath.mpf(z) ** 2 for z in zeros]
        p2 = [mpmath.mpf(p) ** 2 for p in poles]

        def ln_h(v):
            w2 = mpmath.exp(2 * v)
            return (mpmath.log(gain) + mpmath.fsum(mpmath.log(w2 + z) for z in z2) / 2
                    - mpmath.fsum(mpmath.log(w2 + p) for p in p2) / 2)

        h = mpmath.mpf("1e-12")
        u = mpmath.mpf(u)
        return float((ln_h(u + h) - ln_h(u - h)) / (2 * h))


def analog_slope(poles, zeros, omega) -> np.ndarray:
    """Closed-form d ln|H| / d ln(omega), summed here in numpy."""
    w2 = np.asarray(omega, dtype=np.float64)[:, None] ** 2
    return (np.sum(w2 / (w2 + np.asarray(zeros) ** 2), axis=1)
            - np.sum(w2 / (w2 + np.asarray(poles) ** 2), axis=1))


def fine_max_error(poles, zeros, target, f_min, f_max, r) -> float:
    """In-band max |slope error| on a grid 8x finer than the program's."""
    n_pts = int(math.ceil(math.log(f_max / f_min) / math.log(r) * FINE_PPI)) + 1
    omega = TWO_PI * np.geomspace(f_min, f_max, n_pts)
    return float(np.max(np.abs(analog_slope(poles, zeros, omega) - target)))


def matches_fine_max(reported: float, fine: float) -> bool:
    """A 64-point-per-interval maximum against the fine-grid one."""
    return fine * (1.0 - MAX_GRID_DEFICIT) <= reported <= fine * (1.0 + FINE_GRID_DEFICIT) + ABS_LEVEL


def parse_design(text: str) -> dict:
    d = json.loads(text)
    d["poles"] = np.asarray(d["poles_rad_s"], dtype=np.float64)
    d["zeros"] = np.asarray(d["zeros_rad_s"], dtype=np.float64)
    return d


def parse_coeffs(text: str) -> dict:
    c = json.loads(text)
    for key in ("b0", "b1", "a1"):
        c[key] = np.array([s[key] for s in c["sections"]], dtype=np.float64)
    return c


def digital_response(b0, b1, a1, gain, f, fs) -> np.ndarray:
    zinv = np.exp(-1j * TWO_PI * np.asarray(f, dtype=np.float64) / fs)[:, None]
    return gain * np.prod((b0 + b1 * zinv) / (1.0 + a1 * zinv), axis=1)


def digital_slope(b0, b1, a1, f, fs) -> np.ndarray:
    """d ln|H(e^{j theta})| / d ln f of a first-order cascade, in closed form.

    For (b0 + b1 e^-jt) / (1 + a1 e^-jt) the log-magnitude derivative in t is
    -b0 b1 sin t / |b0 + b1 e^-jt|^2 + a1 sin t / |1 + a1 e^-jt|^2, and
    d/d ln f = t d/dt.  |.|^2 uses (b0 + b1)^2 - 4 b0 b1 sin^2(t/2), which
    stays accurate for breaks far below fs.
    """
    theta = (TWO_PI * np.asarray(f, dtype=np.float64) / fs)[:, None]
    s = np.sin(theta)
    h2 = 4.0 * np.sin(0.5 * theta) ** 2
    num = -b0 * b1 * s / ((b0 + b1) ** 2 - b0 * b1 * h2)
    den = -a1 * s / ((1.0 + a1) ** 2 - a1 * h2)
    return theta[:, 0] * np.sum(num - den, axis=1)


def delivered_slope_error(b0, b1, a1, fs, f_min, f_max, target) -> float:
    f = np.geomspace(f_min, f_max, SLOPE_GRID_POINTS)
    return float(np.max(np.abs(digital_slope(b0, b1, a1, f, fs) - target)))


def margin_rule_keep(pole_breaks_hz, fs) -> int:
    """Poles kept below Nyquist: all if all fit, else one interval of margin."""
    in_range = int(np.count_nonzero(pole_breaks_hz <= 0.5 * fs))
    return in_range if in_range == len(pole_breaks_hz) else in_range - 1


def prewarp(values_rad_s, c, fs, clamp: bool):
    """-c tan(|s| T / 2); with ``clamp``, breaks that reach the clamp point
    (or fs/2) are pinned there."""
    half = 0.5 * np.abs(values_rad_s) / fs
    below = half < 0.5 * math.pi
    out = -c * np.tan(np.where(below, half, 0.0))
    if clamp:
        floor = -TWO_PI * ZERO_CLAMP_FRACTION * fs
        out = np.where(~below | (out <= floor), floor, out)
    return out


# ---------------------------------------------------------------- design files


def check_design(text: str, want: dict) -> dict[str, tuple[bool, str]]:
    d = parse_design(text)
    n, k, ip = int(d["n"]), int(d["k_skip"]), int(d["integer_part"])
    f_min, f_max = float(d["f_min_hz"]), float(d["f_max_hz"])
    out = {}
    echoed = (d["alpha"] == want["alpha"] and n == want["order"] and k == want["skip"]
              and ip == want["integer_part"] and f_min == want["f_min_hz"]
              and f_max == want["f_max_hz"])
    out["design.inputs_echoed"] = (echoed, f"alpha={d['alpha']} n={n} k={k} ip={ip}")

    r, _, _, _ = geometric_ladder(d["alpha"], n, k, f_min, f_max)
    poles = d["poles"][max(0, -ip):]
    zeros = d["zeros"][max(0, ip):]
    ok = len(poles) == n and len(zeros) == n and bool(np.all(poles < 0))
    dev = float(np.max(np.abs(poles[1:] / poles[:-1] / r - 1.0))) if ok else math.inf
    dev_r = abs(d["r"] / r - 1.0)
    out["design.ladder_geometric"] = (ok and dev <= REL_EXACT and dev_r <= REL_EXACT,
                                      f"max ratio dev {dev:.2e}, r dev {dev_r:.2e}")

    if ok:
        dev_lo = abs(abs(poles[k]) / TWO_PI / f_min - 1.0)
        dev_hi = abs(abs(poles[n - 1 - k]) / TWO_PI / f_max - 1.0)
    else:
        dev_lo = dev_hi = math.inf
    out["design.breaks_at_band_edges"] = (max(dev_lo, dev_hi) <= REL_EXACT,
                                          f"f_min dev {dev_lo:.2e}, f_max dev {dev_hi:.2e}")

    dev_z = float(np.max(np.abs(zeros / (poles * r ** (-d["alpha"])) - 1.0))) if ok else math.inf
    out["design.zeros_slid"] = (dev_z <= REL_EXACT, f"max zero dev {dev_z:.2e}")

    level = log_abs_h(d["poles"], d["zeros"], d["gain"], TWO_PI * math.sqrt(f_min * f_max))
    out["design.unity_at_center"] = (abs(level) <= ABS_LEVEL, f"ln|H(center)| = {level:.2e}")
    return out


def check_report(text: str, max_err: float, samples, with_mpmath: bool) -> dict[str, tuple[bool, str]]:
    """Slope-report figures against mpmath and an independent fine grid.

    ``samples`` holds (ln omega, error) pairs, the worst in-band point first.
    The mpmath comparison is slow, so run.py asks for it on a subset.
    """
    d = parse_design(text)
    target = d["alpha"] + d["integer_part"]
    out = {}
    if with_mpmath:
        worst = 0.0
        for u, err in samples:
            exact = mp_slope(d["poles"], d["zeros"], d["gain"], u) - target
            worst = max(worst, abs(exact - err))
        out["report.slope_mpmath"] = (worst <= ABS_LEVEL, f"max |error - mpmath| {worst:.2e}")

    argmax_err = abs(samples[0][1])
    fine = fine_max_error(d["poles"], d["zeros"], target, d["f_min_hz"], d["f_max_hz"], d["r"])
    ok = abs(max_err - argmax_err) <= ABS_LEVEL and matches_fine_max(max_err, fine)
    out["report.max_error"] = (ok, f"reported {max_err:.6g}, fine grid {fine:.6g}")
    return out


# ---------------------------------------------------------------- coefficient files


def check_coeffs(coeff_text: str, design_text: str, fs: float) -> dict[str, tuple[bool, str]]:
    c, d = parse_coeffs(coeff_text), parse_design(design_text)
    out = {"coeffs.sample_rate": (c["sample_rate_hz"] == fs,
                                  f"{c['sample_rate_hz']} vs {fs}")}
    poles_z = -c["a1"]
    out["coeffs.digital_poles_inside"] = (bool(np.all(np.abs(poles_z) < 1.0)),
                                          f"max |pole| {np.max(np.abs(poles_z)):.15f}")

    # H_d(e^{j w T}) == K * H_proto(j c tan(w T / 2)), where the prototype is the
    # design truncated by the margin rule and prewarped with tan.
    f1 = d["f1_hz"]
    cc = TWO_PI * f1 / math.tan(math.pi * f1 / fs)
    breaks = np.abs(d["poles"]) / TWO_PI
    keep = margin_rule_keep(breaks, fs)
    p_hat = prewarp(d["poles"][:keep], cc, fs, clamp=False)
    z_hat = prewarp(d["zeros"][:min(len(d["zeros"]), keep)], cc, fs, clamp=True)
    fc = math.sqrt(d["f_min_hz"] * d["f_max_hz"])
    f = np.concatenate([[fc, d["f_min_hz"], d["f_max_hz"]], breaks[:keep]])
    f = f[f < 0.5 * fs]
    if len(c["a1"]) != keep:
        out["coeffs.bilinear_identity"] = (False, f"{len(c['a1'])} sections, expected {keep}")
        return out
    hd = digital_response(c["b0"], c["b1"], c["a1"], c["gain"], f, fs)
    jw = 1j * cc * np.tan(math.pi * f / fs)[:, None]
    hp = np.prod(jw - z_hat, axis=1) / np.prod(jw - p_hat, axis=1)
    ratio = hd / hp
    dev_shape = float(np.max(np.abs(ratio / ratio[0] - 1.0)))
    dev_level = abs(abs(hd[0]) - 1.0)
    out["coeffs.bilinear_identity"] = (
        dev_shape <= IDENTITY_TOL and dev_level <= IDENTITY_TOL,
        f"shape dev {dev_shape:.2e}, |H(center)|-1 {dev_level:.2e}, {len(f)} freqs")
    return out


# ---------------------------------------------------------------- CLI text outputs


def parse_bode_csv(text: str):
    meta, rows = {}, []
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("# ") and "=" in ln:
            key, value = ln[2:].split("=", 1)
            meta[key] = value
    for row in csv.DictReader(io.StringIO("\n".join(body))):
        rows.append({k: float(v) for k, v in row.items()})
    return meta, rows


def check_bode_csv(csv_text: str, design_text: str, probe: int) -> dict[str, tuple[bool, str]]:
    d = parse_design(design_text)
    target = d["alpha"] + d["integer_part"]
    meta, rows = parse_bode_csv(csv_text)
    u = np.array([r["omega_ln"] for r in rows])
    err = np.array([r["slope_error"] for r in rows])
    lo, hi = math.log(TWO_PI * d["f_min_hz"]), math.log(TWO_PI * d["f_max_hz"])
    pad = 1e-9 * (u[1] - u[0])
    idx = np.nonzero((u >= lo - pad) & (u <= hi + pad))[0]
    worst = idx[int(np.argmax(np.abs(err[idx])))]
    picks = [worst, idx[probe % len(idx)], idx[(probe // 7) % len(idx)]]
    dev = max(abs(mp_slope(d["poles"], d["zeros"], d["gain"], float(u[i])) - target - err[i])
              for i in picks)
    reported = float(meta["max_abs_slope_error_in_band"])
    ok = dev <= ABS_LEVEL and abs(reported - abs(err[worst])) <= ABS_LEVEL
    return {"cli.bode_csv": (ok, f"mpmath dev {dev:.2e}, reported max {reported:.6g} "
                                 f"vs rows {abs(err[worst]):.6g}")}


def check_sweep_csv(csv_text: str, alpha: float, orders, skips, band) -> dict[str, tuple[bool, str]]:
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    got = [(int(r["n"]), int(r["k"])) for r in rows]
    want = [(n, k) for n in orders for k in skips]
    bad = 0
    for (n, k), r in zip(got, rows):
        reported = float(r["max_abs_slope_error"])
        ratio, _, poles, zeros = geometric_ladder(alpha, n, k, *band)
        fine = fine_max_error(poles, zeros, alpha, *band, ratio)
        bad += not matches_fine_max(reported, fine)
    return {"cli.sweep_csv": (got == want and bad == 0,
                              f"{len(rows)} rows, grid match {got == want}, {bad} off the fine grid")}


# ---------------------------------------------------------------- streams


def first_order_sos(b0, b1, a1) -> np.ndarray:
    """`sosfilt` rows for sections (b0 + b1/z) / (1 + a1/z)."""
    zero = np.zeros_like(a1)
    return np.column_stack([b0, b1, zero, np.ones_like(a1), a1, zero])


def relative_deviation(ref, y) -> float:
    """Largest |ref - y| over the peak of ref; infinite if the lengths differ."""
    if len(ref) != len(y):
        return math.inf
    return float(np.max(np.abs(ref - y))) / float(np.max(np.abs(ref)))


def check_static_stream(coeff_text, x, y, cli_bytes) -> dict[str, tuple[bool, str]]:
    c = parse_coeffs(coeff_text)
    dev = relative_deviation(c["gain"] * sosfilt(first_order_sos(c["b0"], c["b1"], c["a1"]), x), y)
    same = cli_bytes == y.astype("<f8").tobytes()
    return {
        "stream.reference_cascade": (dev <= STREAM_TOL, f"max dev / peak {dev:.2e}"),
        "stream.cli_bit_identical": (same, f"{len(cli_bytes)} CLI bytes"),
    }


def psd_slope(x, fs) -> float:
    f, p = welch(x, fs=fs, window="hann", nperseg=8192, noverlap=4096)
    mask = (f >= PSD_FIT_HZ[0]) & (f <= PSD_FIT_HZ[1])
    a = np.vstack([np.ones(mask.sum()), np.log(f[mask])]).T
    coef, *_ = np.linalg.lstsq(a, np.log(p[mask]), rcond=None)
    return float(coef[1])


def check_noise(noise, color, fs) -> dict[str, tuple[bool, str]]:
    slope = psd_slope(noise, fs)
    return {"noise.psd_slope": (abs(slope - 2.0 * color) <= PSD_TOL,
                                f"power slope {slope:.4f}, target {2.0 * color:+.2f}")}


def modulation_reference(stock: dict, fs: float, alphas):
    """Per-block (b0, b1, gain) and a1 from the closed form: slide the zero
    ladder, prewarp with tan, bilinear map; re-level at the louder band edge."""
    r, f1, poles, _ = geometric_ladder(stock["alpha"], stock["order"], stock["skip"],
                                       stock["f_min_hz"], stock["f_max_hz"])
    cc = TWO_PI * f1 / math.tan(math.pi * f1 / fs)
    keep = margin_rule_keep(np.abs(poles) / TWO_PI, fs)
    p_hat = prewarp(poles[:keep], cc, fs, clamp=False)
    dens = cc - p_hat
    a1 = -(cc + p_hat) / dens
    alphas = np.asarray(alphas, dtype=np.float64)
    zeros = poles[None, :keep] * r ** (-alphas[:, None])
    z_hat = prewarp(zeros, cc, fs, clamp=True)
    b0 = (cc - z_hat) / dens
    b1 = -(cc + z_hat) / dens

    def edge(f_hz):
        return cc * math.tan(math.pi * min(f_hz, ZERO_CLAMP_FRACTION * fs) / fs)

    w = np.where(alphas < 0.0, edge(stock["f_min_hz"]), edge(stock["f_max_hz"]))[:, None]
    level = (0.5 * np.sum(np.log(w**2 + z_hat**2), axis=1)
             - 0.5 * np.sum(np.log(w**2 + p_hat**2), axis=1))
    return b0, b1, np.exp(-level), a1


def check_modulated_stream(stock, fs, block, alphas, x, y, dens, cli_bytes):
    b0, b1, gain, a1 = modulation_reference(stock, fs, alphas)
    same_dens = bool(np.all(dens == dens[0]))
    dev_a1 = float(np.max(np.abs(dens[0] / a1 - 1.0))) if dens.shape[1] == len(a1) else math.inf
    inside = bool(np.all(np.abs(dens[0]) < 1.0))
    out = {"stream.denominators_constant": (
        same_dens and dev_a1 <= REL_EXACT and inside,
        f"{len(dens)} snapshots bit-identical {same_dens}, a1 dev {dev_a1:.2e}")}

    ref = np.empty_like(x)
    state = np.zeros((len(a1), 2))
    for j, i in enumerate(range(0, len(x), block)):
        seg, state = sosfilt(first_order_sos(b0[j], b1[j], a1), x[i:i + block], zi=state)
        ref[i:i + block] = gain[j] * seg
    dev = relative_deviation(ref, y)
    out["stream.reference_recursion"] = (dev <= STREAM_TOL, f"max dev / peak {dev:.2e}")
    same = cli_bytes == y.astype("<f8").tobytes()
    out["stream.cli_bit_identical"] = (same, f"{len(cli_bytes)} CLI bytes")
    return out
