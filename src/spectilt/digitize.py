"""Bilinear digitization with per-break prewarping and Nyquist truncation.

The substitution s = c*(1 - 1/z)/(1 + 1/z) maps a negative-real analog pole p
to the real digital pole (1 + p/c)/(1 - p/c) inside the unit circle.  The
constant c is chosen so the first break frequency f1 maps to itself, and
every other break is prewarped beforehand by the same tangent map (see
_prewarp), which lands all digital breaks exactly on the analog design's
break ladder.  Poles are truncated so that one full spacing interval remains
below the Nyquist limit, leaving room for the top zero to slide as the slope
is modulated; any zero whose prewarped break would still meet fs/2 is clamped
just below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import TWO_PI, AnalogFilter, BandSpec, TiltDesign, value_eq
from .errors import (
    AboveNyquistError,
    EmptyDesignError,
    FileFormatError,
    OutOfRangeError,
    UnstableMapError,
)
from .serialize import emit_object, f17, parse_object, real

# Prewarped zero breaks at or above fs/2 are pinned to this fraction of fs.
ZERO_CLAMP_FRACTION = 0.499


def prewarp_constant(f1_hz: float, fs_hz: float) -> float:
    """Bilinear constant c = 2*pi*f1 / tan(pi*f1/fs); c -> 2*fs as f1 -> 0."""
    if not 0.0 < f1_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"need 0 < f1 < fs/2, got f1={f1_hz}, fs={fs_hz}")
    if not math.isfinite(fs_hz):
        raise OutOfRangeError(f"sample rate must be finite, got {fs_hz}")
    return TWO_PI * f1_hz / math.tan(math.pi * f1_hz / fs_hz)


def _prewarp(values_rad_s, c: float, fs_hz: float) -> np.ndarray:
    """Prewarped s-plane position -c*tan(|s|/(2*fs)) of each value.

    A value at or above the Nyquist limit (half angle >= pi/2) has no image
    and comes back as NaN, for the caller to reject or clamp.
    """
    half = np.abs(values_rad_s) / (2.0 * fs_hz)
    return np.where(half < 0.5 * math.pi, -c * np.tan(half), np.nan)


def _margin_rule_count(breaks: np.ndarray, fs_hz: float) -> int:
    """Number of poles to keep below the Nyquist limit with a one-interval margin.

    If any break exceeds fs/2, the first *discarded* break must still lie at
    or below fs/2, so the kept count is one less than the number of in-range
    breaks; if the whole ladder sits below fs/2, everything is kept.  Tied
    breaks (repeated integer-part poles) count once each.
    """
    nyquist = 0.5 * fs_hz
    in_range = int(np.count_nonzero(breaks <= nyquist))
    if in_range == 0:
        raise EmptyDesignError(f"no break at or below {nyquist} Hz")
    if in_range == len(breaks):
        return in_range
    return in_range - 1


def _first_order_sos(b0, b1, a1) -> np.ndarray:
    """Cascade rows [b0, b1, 0, 1, a1, 0], one per first-order section."""
    sos = np.zeros((len(a1), 6))
    sos[:, 0] = b0
    sos[:, 1] = b1
    sos[:, 3] = 1.0
    sos[:, 4] = a1
    return sos


@dataclass(frozen=True, eq=False)
class DigitalFilter:
    """Cascade of first-order sections (b0 + b1/z) / (1 + a1/z) with one block-level gain.

    ``sos`` is a read-only (n, 6) array holding one row [b0, b1, 0, 1, a1, 0]
    per section, the second-order-section layout of scipy's compiled cascade
    loop, which StreamingFilter runs; section k has its pole at z = -a1.
    """

    sos: np.ndarray
    gain: float
    sample_rate_hz: float

    def __post_init__(self) -> None:
        sos = np.array(self.sos, dtype=np.float64)
        if (sos.ndim != 2 or sos.shape[1] != 6 or (sos[:, (2, 5)] != 0.0).any()
                or (sos[:, 3] != 1.0).any()):
            raise OutOfRangeError("sos must be an (n, 6) array of rows [b0, b1, 0, 1, a1, 0]")
        unstable = ~(np.abs(sos[:, 4]) < 1.0)
        if unstable.any():
            raise UnstableMapError(f"section pole {-sos[unstable, 4][0]} is not inside (-1, 1)")
        if not (self.gain > 0.0 and math.isfinite(self.gain)):
            raise OutOfRangeError(f"gain must be positive and finite, got {self.gain}")
        if not (self.sample_rate_hz > 0.0 and math.isfinite(self.sample_rate_hz)):
            raise OutOfRangeError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not len(sos):
            raise EmptyDesignError("a cascade needs at least one section")
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)
        object.__setattr__(self, "gain", float(self.gain))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    __eq__ = value_eq


def digital_response(dfilt: DigitalFilter, f_hz):
    """Complex response of the cascade at f_hz (scalar or array)."""
    f = np.asarray(f_hz, dtype=np.float64)
    zinv = np.exp(-1j * TWO_PI * f / dfilt.sample_rate_hz)
    h = np.full(zinv.shape, dfilt.gain, dtype=np.complex128)
    for b0, b1, _, _, a1, _ in dfilt.sos:
        h *= (b0 + b1 * zinv) / (1.0 + a1 * zinv)
    return h if f.ndim else complex(h)


def _scalar_log_mag(roots: np.ndarray, omega: float) -> float:
    """ln prod |j omega - root| over real roots; the log magnitude at omega is
    the zero sum minus the pole sum plus the log gain.

    One-sided, unlike pole_zero_sum: the leveling code keeps the pole half
    fixed and recomputes only the zero half.  Over the golden grid the
    resulting leveled log magnitude is within 1e-12 of its target (see
    tests/test_digitize.py::TestLevelingPrecision).
    """
    return 0.5 * float(np.log(omega * omega + roots * roots).sum())


def _prewarp_zeros(zeros_rad_s: np.ndarray, c: float, fs_hz: float) -> np.ndarray:
    """Prewarp zeros, pinning any break at or above fs/2 just below it."""
    return np.fmax(_prewarp(zeros_rad_s, c, fs_hz), -TWO_PI * ZERO_CLAMP_FRACTION * fs_hz)


def _prototype(filt: AnalogFilter, c: float, fs_hz: float, band: BandSpec) -> AnalogFilter:
    """Truncated, prewarped filter whose zeros are clamped below fs/2 and whose
    magnitude at the prewarped band center is the analog one at the center."""
    if len(filt.zeros) > len(filt.poles):
        raise UnstableMapError(
            "more zeros than poles: the substitution would place digital poles at z=-1; "
            "use matched pole/zero counts (positive integer slope parts are analog-only)"
        )
    pole_breaks = np.abs(filt.poles) / TWO_PI
    n_keep = _margin_rule_count(pole_breaks, fs_hz)
    if n_keep == 0:
        raise EmptyDesignError("no pole survives Nyquist truncation")

    kept_poles = filt.poles[:n_keep]
    kept_zeros = filt.zeros[: min(len(filt.zeros), n_keep)]
    prew_poles = _prewarp(kept_poles, c, fs_hz)
    if np.any(np.isnan(prew_poles)):
        raise AboveNyquistError("break frequency at or above fs/2 cannot be prewarped")
    prew_zeros = _prewarp_zeros(kept_zeros, c, fs_hz)

    if band.center_hz >= 0.5 * fs_hz:
        raise AboveNyquistError(f"band center {band.center_hz} Hz is not below fs/2")
    wc = TWO_PI * band.center_hz
    target = float(filt.log_magnitude(np.array(wc)))
    wc_prew = -float(_prewarp(wc, c, fs_hz))
    log_gain = math.log(filt.gain)
    have = (log_gain + _scalar_log_mag(prew_zeros, wc_prew)
            - _scalar_log_mag(prew_poles, wc_prew))
    log_gain += target - have
    return AnalogFilter(poles=prew_poles, zeros=prew_zeros, gain=math.exp(log_gain))


def _numerators(prew_zeros: np.ndarray, section_dens: np.ndarray, c: float,
                b0: np.ndarray, b1: np.ndarray) -> None:
    """Write b0/b1 per section into b0 and b1; sections past the zero list get
    the zero at z=-1."""
    nz = len(prew_zeros)
    b0[:nz] = (c - prew_zeros) / section_dens[:nz]
    b1[:nz] = -(c + prew_zeros) / section_dens[:nz]
    b0[nz:] = 1.0 / section_dens[nz:]
    b1[nz:] = 1.0 / section_dens[nz:]


def prewarped_prototype(design: TiltDesign, fs_hz: float) -> AnalogFilter:
    """The truncated, prewarped s-plane filter that ``digitize_design`` maps."""
    return _prototype(design.filt, prewarp_constant(design.placement.f1_hz, fs_hz),
                      fs_hz, design.band)


@dataclass(frozen=True, eq=False)
class ModulationContext:
    """Fixed-pole state needed to rebuild numerators when the slope changes.

    The poles (hence every a1) never move; a new slope only slides the zero
    anchors z_k = anchor_k * r**(-alpha), which are then re-prewarped and
    re-mapped.  The gain is re-leveled so the louder band edge sits at unity
    (f_min for downward tilts, f_max for upward ones): a tilt across the band
    spans (f_max/f_min)**|alpha| in gain, so any interior anchor would let a
    band edge run tens of dB hot as |alpha| approaches 1, while edge
    anchoring caps the in-band gain at one for every slope.  The pole half of
    the leveling log magnitude is fixed per anchor, so ``digitize_design``
    computes it once from the prewarped poles (``pole_log_mag_low/high``);
    the poles themselves are not kept, since rebuild never reads them.
    """

    zero_anchors: np.ndarray
    ratio: float
    c: float
    fs_hz: float
    section_dens: np.ndarray
    level_omega_low: float
    level_omega_high: float
    pole_log_mag_low: float
    pole_log_mag_high: float

    def rebuild(self, alpha: float):
        """New (b0, b1, gain) for a slope value; denominators are untouched."""
        b0, b1 = np.empty((2, len(self.section_dens)))
        return b0, b1, self._rebuild_into(alpha, b0, b1)

    def _rebuild_into(self, alpha: float, b0: np.ndarray, b1: np.ndarray) -> float:
        """rebuild writing the numerators into b0 and b1, which may be the
        columns of a live cascade; returns the gain."""
        alpha = float(alpha)
        if not -1.0 <= alpha <= 1.0:
            raise OutOfRangeError(f"alpha must lie in [-1, 1], got {alpha}")
        zeros = self.zero_anchors * self.ratio ** (-alpha)
        prew_zeros = _prewarp_zeros(zeros, self.c, self.fs_hz)
        _numerators(prew_zeros, self.section_dens, self.c, b0, b1)
        if alpha < 0.0:
            anchor, pole_log_mag = self.level_omega_low, self.pole_log_mag_low
        else:
            anchor, pole_log_mag = self.level_omega_high, self.pole_log_mag_high
        return math.exp(pole_log_mag - _scalar_log_mag(prew_zeros, anchor))


def digitize_design(design: TiltDesign, fs_hz: float) -> tuple[DigitalFilter, ModulationContext]:
    """Digitize a design into a first-order cascade, with the context for live
    slope changes.

    Each prewarped pole p and zero z of the prototype (see prewarped_prototype)
    maps to the section pole (c + p)/(c - p) and zero (c + z)/(c - z), and the
    prototype's gain, leveled at the band center, is the cascade's gain, so
    H_d(e^{j w T}) equals the prototype's response at the prewarped frequency
    to rounding.
    """
    c = prewarp_constant(design.placement.f1_hz, fs_hz)
    proto = _prototype(design.filt, c, fs_hz, design.band)
    section_dens = c - proto.poles
    a1 = -(c + proto.poles) / section_dens
    b0, b1 = np.empty((2, len(section_dens)))
    _numerators(proto.zeros, section_dens, c, b0, b1)
    dfilt = DigitalFilter(sos=_first_order_sos(b0, b1, a1), gain=proto.gain,
                          sample_rate_hz=fs_hz)
    # The prototype axis runs to infinity; only band edges at or above
    # Nyquist have no image and fall back to the clamp point.
    edges_hz = np.minimum([design.band.f_min_hz, design.band.f_max_hz],
                          ZERO_CLAMP_FRACTION * fs_hz)
    level_low, level_high = (-_prewarp(TWO_PI * edges_hz, c, fs_hz)).tolist()
    context = ModulationContext(
        zero_anchors=design.geometric_poles[:len(proto.zeros)].copy(),
        ratio=design.placement.r,
        c=c,
        fs_hz=fs_hz,
        section_dens=section_dens,
        level_omega_low=level_low,
        level_omega_high=level_high,
        pole_log_mag_low=_scalar_log_mag(proto.poles, level_low),
        pole_log_mag_high=_scalar_log_mag(proto.poles, level_high),
    )
    return dfilt, context


_COEFF_FIELDS = ("sample_rate_hz", "gain", "sections")
_SECTION_FIELDS = ("b0", "b1", "a1")


def coefficients_to_json(dfilt: DigitalFilter) -> str:
    """Render the coefficient file (fixed field order, 17-digit reals)."""
    rows = ", ".join(
        "{" + f'"b0": {f17(b0)}, "b1": {f17(b1)}, "a1": {f17(a1)}' + "}"
        for b0, b1, a1 in dfilt.sos[:, (0, 1, 4)].tolist()
    )
    return emit_object(
        [
            ("sample_rate_hz", f17(dfilt.sample_rate_hz)),
            ("gain", f17(dfilt.gain)),
            ("sections", "[" + rows + "]"),
        ]
    )


def coefficients_from_json(text: str) -> DigitalFilter:
    """Parse a coefficient file; a malformed one raises FileFormatError."""
    obj = parse_object(text, _COEFF_FIELDS)
    rows = obj["sections"]
    if not isinstance(rows, list):
        raise FileFormatError(f"sections must be a list, got {rows!r:.40}")
    coeffs = []
    for i, row in enumerate(rows):
        if not (isinstance(row, dict) and all(key in row for key in _SECTION_FIELDS)):
            raise FileFormatError(f"sections[{i}] must be an object with b0, b1 and a1")
        coeffs.append([real(row[key], f"sections[{i}].{key}") for key in _SECTION_FIELDS])
    b0, b1, a1 = np.array(coeffs, dtype=np.float64).reshape(-1, 3).T
    return DigitalFilter(
        sos=_first_order_sos(b0, b1, a1),
        gain=real(obj["gain"], "gain"),
        sample_rate_hz=real(obj["sample_rate_hz"], "sample_rate_hz"),
    )


def save_coefficients(dfilt: DigitalFilter, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(coefficients_to_json(dfilt))


def load_coefficients(path) -> DigitalFilter:
    with open(path, "r", encoding="utf-8") as fh:
        return coefficients_from_json(fh.read())
