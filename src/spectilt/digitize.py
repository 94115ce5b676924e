"""Bilinear digitization with per-break prewarping and Nyquist truncation.

The substitution s = c*(1 - 1/z)/(1 + 1/z) maps a negative-real analog pole p
to the real digital pole (1 + p/c)/(1 - p/c) inside the unit circle.  The
constant c is chosen so the first break frequency f1 maps to itself, and
every other break is prewarped beforehand by the same tangent map (see
_prewarp), which lands all digital breaks exactly on the analog design's
break ladder.  Poles are truncated so that one full spacing interval remains
below the Nyquist limit, leaving room for the top zero to slide as the slope
is modulated; a zero past the digital image of the zero cap, near 0.319*fs
(not just below fs/2), lands there.  The zeros are prewarped once per design
(_prewarped_roots) or slope value (ModulationContext.rebuild), and the one
formula _numerators maps them to section numerators, for one slope or many.

One leveling formula, the gain exp(P - Z) from the one-sided sums of
_log_mag, puts a coefficient file at unity at the prewarped band
center and a stream at its louder band edge (see ModulationContext).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (
    TWO_PI,
    AnalogFilter,
    BandSpec,
    TiltDesign,
    _leveling_gain,
    _slide_zeros,
    value_eq,
)
from .errors import (
    AboveNyquistError,
    EmptyDesignError,
    FileFormatError,
    OutOfRangeError,
    UnstableMapError,
)
from .serialize import REAL_FORMAT, emit_object, f17, parse_object, real

# Caps a prewarped zero's |s| at 2*pi*0.499*fs, an image near 0.319*fs; band
# edges at or above fs/2 are pinned at 0.499*fs in Hz (see digitize_design).
ZERO_CLAMP_FRACTION = 0.499
# Where a stream's gain puts |H| at unity (see ModulationContext).
_EDGE = "louder band edge"
# Cap on a batched rebuild group's sections times slopes: the stock 16
# sections take 256 slopes per group.  A group holds at least one slope, so
# a design that keeps more sections than the cap (order 5000 keeps 5000 at
# 48 kHz) rebuilds one slope per group, over the cap.  A group's temporaries
# also set the peak memory of apply --alpha-sweep.
_BATCH_COEFFS = 1 << 12


def prewarp_constant(f1_hz: float, fs_hz: float) -> float:
    """Bilinear constant c = 2*pi*f1 / tan(pi*f1/fs); c -> 2*fs as f1 -> 0."""
    if not 0.0 < f1_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"need 0 < f1 < fs/2, got f1={f1_hz}, fs={fs_hz}")
    if not math.isfinite(fs_hz):
        raise OutOfRangeError(f"sample rate must be finite, got {fs_hz}")
    tangent = math.tan(math.pi * f1_hz / fs_hz)
    # A tangent that underflows to 0 leaves c as far past the float range.
    c = TWO_PI * f1_hz / tangent if tangent else math.inf
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
    per section, in the second-order-section layout of scipy's compiled
    cascade loop; section k has its pole at z = -a1.  These rows are the
    coefficient file's sections.  StreamingFilter runs them as they stand
    when built for a design, and pairs them into second-order rows when built
    from a DigitalFilter alone (see spectilt.runtime).
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


def _log_mag(roots: np.ndarray, omega):
    """ln prod |j omega - root| over the real roots on the last axis: P over
    the poles and Z over the zeros, and the gain exp(P - Z) puts |H(j omega)|
    at one.  A column of omegas levels each row of roots at its own.

    One-sided, unlike pole_zero_sum: rebuild keeps P fixed and recomputes
    only Z.  Over the golden grid the leveled log magnitude is within 1e-12
    of its target (see tests/test_digitize.py::TestLevelingPrecision).  Its
    sums grow with the order, and so does their rounding: against a 40-digit
    sum, the stock ladder's leveled log gain is within 5e-11 up to MAX_ORDER
    (1.8e-11 measured there, at the louder edge; tests/test_precision.py).
    """
    return 0.5 * np.log(omega * omega + roots * roots).sum(axis=-1)


def _prewarp_zeros(zeros_rad_s: np.ndarray, c: float, fs_hz: float) -> np.ndarray:
    """Prewarp zeros, capping each |s| at 2*pi*ZERO_CLAMP_FRACTION*fs, whose
    digital image (fs/pi)*atan(2*pi*0.499*fs/c) is about 0.319*fs: a zero whose
    break lies at or above it lands there (14 079 Hz at 44.1 kHz)."""
    return np.fmax(_prewarp(zeros_rad_s, c, fs_hz), -TWO_PI * ZERO_CLAMP_FRACTION * fs_hz)


def _prewarped_roots(filt: AnalogFilter, c: float, fs_hz: float,
                     band: BandSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """(poles, zeros, gain) of the truncated, prewarped filter whose zeros are
    capped by _prewarp_zeros, leveled at unity at the prewarped band center,
    where every design is unity.  Not checked as an AnalogFilter:
    digitize_design maps the arrays, and DigitalFilter checks their sections."""
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
    gain = _leveling_gain(_log_mag(prew_poles, wc) - _log_mag(prew_zeros, wc), "band center")
    return prew_poles, prew_zeros, gain


def prewarped_prototype(design: TiltDesign, fs_hz: float) -> AnalogFilter:
    """The truncated, prewarped s-plane filter whose roots ``digitize_design`` maps."""
    return AnalogFilter(*_prewarped_roots(
        design.filt, prewarp_constant(design.placement.f1_hz, fs_hz), fs_hz, design.band))


def _numerators(prew_zeros: np.ndarray, c: float, dens: np.ndarray,
                b0: np.ndarray, b1: np.ndarray) -> None:
    """Write each section's numerator into b0 and b1: the bilinear map of its
    prewarped zero over its denominator, and z=-1 for the sections past the
    zeros.  Sections run along the first axis: given dens as a column, a
    column of zeros per slope fills a column of b0 and b1 each.  The one
    numerator formula, for designs and rebuilds alike."""
    nz = len(prew_zeros)
    b0[:nz] = (c - prew_zeros) / dens[:nz]
    b1[:nz] = -(c + prew_zeros) / dens[:nz]
    b0[nz:] = b1[nz:] = 1.0 / dens[nz:]


@dataclass(frozen=True, eq=False)
class ModulationContext:
    """Fixed-pole state that builds the numerators and gain for a slope value.

    The poles (hence every a1) never move; a slope only slides the zero
    anchors by design._slide_zeros, and the zeros are then prewarped and
    mapped by _numerators, as ``digitize_design`` maps its own.  The gain
    levels the louder band edge at unity (f_min for downward tilts, f_max
    for upward ones), not the band center as a coefficient file does: a
    tilt across the band spans (f_max/f_min)**|alpha| in gain, so any
    interior anchor would let a band edge run tens of dB hot as |alpha|
    approaches 1, while edge anchoring caps the in-band gain at one for
    every slope.  The pole half P of exp(P - Z) is fixed per edge, so
    ``digitize_design`` computes it once from the prewarped poles: ``edges``
    holds (anchor omega, P) for the low edge, then the high one.  The poles
    themselves are not kept.
    """

    zero_anchors: np.ndarray
    ratio: float
    c: float
    fs_hz: float
    section_dens: np.ndarray
    edges: tuple[tuple[float, float], tuple[float, float]]

    def rebuild(self, alpha: float):
        """New (b0, b1, gain) for a slope value; denominators are untouched."""
        b0, b1 = np.empty((2, len(self.section_dens)))
        return b0, b1, self._rebuild_into(alpha, b0, b1)

    def _rebuild_into(self, alpha: float, b0: np.ndarray, b1: np.ndarray) -> float:
        """rebuild writing into b0 and b1, which may be the columns of a live
        cascade; returns the gain.  A bad slope, or a gain past the float
        range (OutOfRangeError), leaves b0 and b1 untouched."""
        alpha = float(alpha)
        anchor, pole_log_mag = self._edge_level(alpha)
        prew_zeros = _prewarp_zeros(_slide_zeros(self.zero_anchors, self.ratio, alpha),
                                    self.c, self.fs_hz)
        gain = _leveling_gain(pole_log_mag - _log_mag(prew_zeros, anchor), _EDGE)
        _numerators(prew_zeros, self.c, self.section_dens, b0, b1)
        return gain

    def _rebuild_rows(self, alphas):
        """rebuild for each slope in ``alphas``, a group of slopes per call:
        yields one (numerators, gain) per slope, in order, where numerators
        is a (sections, 2) array holding rebuild(alpha)'s b0 and b1 as
        columns, the layout of a cascade's numerator columns.  Each equals
        rebuild's bit for bit: every step works elementwise, the slide takes
        one Python float power per slope, and each slope's log-sum runs along
        its own contiguous row, as rebuild's does.  Every slope is checked
        before the first row; a group holds _BATCH_COEFFS // sections slopes,
        or one if the design keeps more than _BATCH_COEFFS sections."""
        alphas = [float(alpha) for alpha in alphas]
        levels = [self._edge_level(alpha) for alpha in alphas]
        sections = len(self.section_dens)
        group = max(1, _BATCH_COEFFS // sections)
        for i in range(0, len(alphas), group):
            # One row of zeros per slope.
            prew_zeros = _prewarp_zeros(
                _slide_zeros(self.zero_anchors, self.ratio, alphas[i:i + group]),
                self.c, self.fs_hz)
            numerators = np.empty((sections, 2, len(prew_zeros)))
            _numerators(prew_zeros.T, self.c, self.section_dens[:, None],
                        numerators[:, 0], numerators[:, 1])
            anchors = np.array([[anchor] for anchor, _ in levels[i:i + group]])
            zero_log_mags = _log_mag(prew_zeros, anchors).tolist()
            for j, (_, pole_log_mag) in enumerate(levels[i:i + group]):
                yield numerators[..., j], _leveling_gain(pole_log_mag - zero_log_mags[j], _EDGE)

    def _edge_level(self, alpha: float) -> tuple[float, float]:
        """(anchor omega, pole half P) of the louder band edge for a slope;
        a slope outside [-1, 1] raises OutOfRangeError."""
        if not -1.0 <= alpha <= 1.0:
            raise OutOfRangeError(f"alpha must lie in [-1, 1], got {alpha}")
        return self.edges[alpha >= 0.0]

    def _check_slopes(self, a0: float, a1: float) -> None:
        """Raise as rebuild would if any slope from a0 to a1 is out of range
        or needs a gain past the float range.  The leveling edge switches
        at slope 0 (see _edge_level), and each edge's zero log-magnitude is
        monotone in the slope, so the ends of each sign region bound every
        gain: a0, a1, and the slopes either side of 0 between them."""
        low, high = sorted((a0, a1))
        slopes = [low, high]
        if low < 0.0 <= high:
            slopes += [math.nextafter(0.0, -1.0), 0.0]
        for _ in self._rebuild_rows(slopes):
            pass


def digitize_design(design: TiltDesign, fs_hz: float) -> tuple[DigitalFilter, ModulationContext]:
    """Digitize a design into a first-order cascade, with the context for live
    slope changes.

    Each prewarped pole p and zero z of the prototype (see prewarped_prototype)
    maps to the section pole (c + p)/(c - p) and zero (c + z)/(c - z).  The
    zeros are prewarped once, and _numerators maps them as the context's
    rebuild maps the zeros of any slope, so rebuilding at the design slope
    gives the same numerators bit for bit.  The prototype's gain, leveled at
    the band center, is the cascade's gain, so H_d(e^{j w T}) equals the
    prototype's response at the prewarped frequency to rounding.
    """
    c = prewarp_constant(design.placement.f1_hz, fs_hz)
    prew_poles, prew_zeros, gain = _prewarped_roots(design.filt, c, fs_hz, design.band)
    section_dens = c - prew_poles
    a1 = -(c + prew_poles) / section_dens
    # The lowest break maps nearest z = 1, and at a high enough rate onto it.
    if a1[0] <= -1.0:
        raise OutOfRangeError(f"sample rate {fs_hz:g} Hz is too high to resolve the "
                              f"{-design.filt.poles[0] / TWO_PI:g} Hz break: its section "
                              "pole rounds onto z = 1")
    # The prototype axis runs to infinity; only band edges at or above
    # Nyquist have no image.  They are pinned at 0.499*fs in Hz before
    # prewarping, so unlike a capped zero their image is just below fs/2.
    edges_hz = np.minimum([design.band.f_min_hz, design.band.f_max_hz],
                          ZERO_CLAMP_FRACTION * fs_hz)
    context = ModulationContext(
        zero_anchors=design.geometric_poles[:len(prew_zeros)],
        ratio=design.placement.r,
        c=c,
        fs_hz=fs_hz,
        section_dens=section_dens,
        edges=tuple((omega, float(_log_mag(prew_poles, omega)))
                    for omega in (-_prewarp(TWO_PI * edges_hz, c, fs_hz)).tolist()),
    )
    sos = _first_order_sos(0.0, 0.0, a1)  # numerators written into its columns
    _numerators(prew_zeros, c, section_dens, sos[:, 0], sos[:, 1])
    return DigitalFilter(sos=sos, gain=gain, sample_rate_hz=fs_hz), context


_COEFF_FIELDS = ("sample_rate_hz", "gain", "sections")
_SECTION_FIELDS = ("b0", "b1", "a1")
# One section's object, a %-format template for the floats of one sos row.
_SECTION_ROW = "{" + ", ".join(f'"{key}": %{REAL_FORMAT}' for key in _SECTION_FIELDS) + "}"


def coefficients_to_json(dfilt: DigitalFilter) -> str:
    """Render the coefficient file (fixed field order, 17-digit reals); every
    section's floats are formatted in one %-format call."""
    values = dfilt.sos[:, (0, 1, 4)].ravel().tolist()
    rows = ", ".join([_SECTION_ROW] * len(dfilt.sos)) % tuple(values)
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
