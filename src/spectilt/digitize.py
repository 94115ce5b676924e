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

One leveling formula, the gain exp(P - Z) from the one-sided sums of
_scalar_log_mag, puts a coefficient file at unity at the prewarped band
center and a stream at its louder band edge (see ModulationContext).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import TWO_PI, AnalogFilter, BandSpec, TiltDesign, _slide_zeros, value_eq
from .errors import (
    AboveNyquistError,
    EmptyDesignError,
    FileFormatError,
    OutOfRangeError,
    UnstableMapError,
)
from .serialize import REAL_FORMAT, emit_object, f17, parse_object, real

# Prewarped zero breaks at or above fs/2 are pinned to this fraction of fs.
ZERO_CLAMP_FRACTION = 0.499


def prewarp_constant(f1_hz: float, fs_hz: float) -> float:
    """Bilinear constant c = 2*pi*f1 / tan(pi*f1/fs); c -> 2*fs as f1 -> 0."""
    if not 0.0 < f1_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"need 0 < f1 < fs/2, got f1={f1_hz}, fs={fs_hz}")
    if not math.isfinite(fs_hz):
        raise OutOfRangeError(f"sample rate must be finite, got {fs_hz}")
    c = TWO_PI * f1_hz / math.tan(math.pi * f1_hz / fs_hz)
    if not math.isfinite(c):
        raise OutOfRangeError(f"sample rate {fs_hz:g} Hz is too large: the bilinear "
                              "constant overflows")
    return c


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
        if (sos.ndim != 2 or sos.shape[1] != 6 or (sos[:, 2:6:3] != 0.0).any()
                or (sos[:, 3] != 1.0).any()):
            raise OutOfRangeError("sos must be an (n, 6) array of rows [b0, b1, 0, 1, a1, 0]")
        stable = np.abs(sos[:, 4]) < 1.0  # False for a NaN a1
        if not stable.all():
            raise UnstableMapError(
                f"section pole {-sos[stable.argmin(), 4]} is not inside (-1, 1)")
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
    """ln prod |j omega - root| over real roots: P over the poles and Z over
    the zeros, and the gain exp(P - Z) puts |H(j omega)| at one.

    One-sided, unlike pole_zero_sum: rebuild keeps P fixed and recomputes
    only Z.  Over the golden grid the leveled log magnitude is within 1e-12
    of its target (see tests/test_digitize.py::TestLevelingPrecision).
    """
    return 0.5 * float(np.log(omega * omega + roots * roots).sum())


def _prewarp_zeros(zeros_rad_s: np.ndarray, c: float, fs_hz: float) -> np.ndarray:
    """Prewarp zeros, pinning any break at or above fs/2 just below it."""
    return np.fmax(_prewarp(zeros_rad_s, c, fs_hz), -TWO_PI * ZERO_CLAMP_FRACTION * fs_hz)


def _prototype(filt: AnalogFilter, c: float, fs_hz: float, band: BandSpec) -> AnalogFilter:
    """Truncated, prewarped filter whose zeros are clamped below fs/2, leveled
    at unity at the prewarped band center, where every design is unity."""
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
    wc = -float(_prewarp(TWO_PI * band.center_hz, c, fs_hz))
    gain = math.exp(_scalar_log_mag(prew_poles, wc) - _scalar_log_mag(prew_zeros, wc))
    return AnalogFilter(poles=prew_poles, zeros=prew_zeros, gain=gain)


def prewarped_prototype(design: TiltDesign, fs_hz: float) -> AnalogFilter:
    """The truncated, prewarped s-plane filter that ``digitize_design`` maps."""
    return _prototype(design.filt, prewarp_constant(design.placement.f1_hz, fs_hz),
                      fs_hz, design.band)


@dataclass(frozen=True, eq=False)
class ModulationContext:
    """Fixed-pole state that builds the numerators and gain for a slope value.

    The poles (hence every a1) never move; a slope only slides the zero
    anchors by design._slide_zeros, and the zeros are then prewarped and
    mapped.  ``digitize_design`` takes its numerators from here.  The gain
    levels the louder band edge at unity (f_min for downward tilts, f_max
    for upward ones), not the band center as a coefficient file does: a
    tilt across the band spans (f_max/f_min)**|alpha| in gain, so any
    interior anchor would let a band edge run tens of dB hot as |alpha|
    approaches 1, while edge anchoring caps the in-band gain at one for
    every slope.  The pole half P of exp(P - Z) is fixed per anchor, so
    ``digitize_design`` computes it once from the prewarped poles
    (``pole_log_mag_low/high``); the poles themselves are not kept.
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
        """rebuild writing into b0 and b1, which may be the columns of a live
        cascade; returns the gain.  Sections past the zeros get z=-1."""
        alpha = float(alpha)
        if not -1.0 <= alpha <= 1.0:
            raise OutOfRangeError(f"alpha must lie in [-1, 1], got {alpha}")
        prew_zeros = _prewarp_zeros(_slide_zeros(self.zero_anchors, self.ratio, alpha),
                                    self.c, self.fs_hz)
        nz, dens = len(prew_zeros), self.section_dens
        b0[:nz] = (self.c - prew_zeros) / dens[:nz]
        b1[:nz] = -(self.c + prew_zeros) / dens[:nz]
        b0[nz:] = b1[nz:] = 1.0 / dens[nz:]
        if alpha < 0.0:
            anchor, pole_log_mag = self.level_omega_low, self.pole_log_mag_low
        else:
            anchor, pole_log_mag = self.level_omega_high, self.pole_log_mag_high
        return math.exp(pole_log_mag - _scalar_log_mag(prew_zeros, anchor))


def digitize_design(design: TiltDesign, fs_hz: float) -> tuple[DigitalFilter, ModulationContext]:
    """Digitize a design into a first-order cascade, with the context for live
    slope changes.

    Each prewarped pole p and zero z of the prototype (see prewarped_prototype)
    maps to the section pole (c + p)/(c - p) and zero (c + z)/(c - z), the
    numerators being ``context.rebuild`` at the design slope.  The prototype's
    gain, leveled at the band center, is the cascade's gain, so H_d(e^{j w T})
    equals the prototype's response at the prewarped frequency to rounding.
    """
    c = prewarp_constant(design.placement.f1_hz, fs_hz)
    proto = _prototype(design.filt, c, fs_hz, design.band)
    section_dens = c - proto.poles
    a1 = -(c + proto.poles) / section_dens
    # The lowest break maps nearest z = 1, and at a high enough rate onto it.
    if a1[0] <= -1.0:
        raise OutOfRangeError(f"sample rate {fs_hz:g} Hz is too high to resolve the "
                              f"{-design.filt.poles[0] / TWO_PI:g} Hz break: its section "
                              "pole rounds onto z = 1")
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
    b0, b1, _ = context.rebuild(design.spec.alpha)
    dfilt = DigitalFilter(sos=_first_order_sos(b0, b1, a1), gain=proto.gain,
                          sample_rate_hz=fs_hz)
    return dfilt, context


_COEFF_FIELDS = ("sample_rate_hz", "gain", "sections")
_SECTION_FIELDS = ("b0", "b1", "a1")
# One section's object, for the Python floats of one sos row.
_SECTION_ROW = "{{" + ", ".join(f'"{key}": {{:{REAL_FORMAT}}}' for key in _SECTION_FIELDS) + "}}"


def coefficients_to_json(dfilt: DigitalFilter) -> str:
    """Render the coefficient file (fixed field order, 17-digit reals)."""
    rows = ", ".join(_SECTION_ROW.format(*row) for row in dfilt.sos[:, (0, 1, 4)].tolist())
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
