"""Bilinear digitization with per-break prewarping and Nyquist truncation.

The substitution s = c*(1 - 1/z)/(1 + 1/z) maps a negative-real analog pole p
to the real digital pole (1 + p/c)/(1 - p/c) inside the unit circle.  The
constant c is chosen so the first break frequency f1 maps to itself, and
every other break frequency f is prewarped to f1*tan(pi*f*T)/tan(pi*f1*T)
beforehand, which lands all digital breaks exactly on the analog design's
break ladder.  Poles are truncated so that one full spacing interval remains
below the Nyquist limit, leaving room for the top zero to slide as the slope
is modulated; any zero whose prewarped break would still meet fs/2 is clamped
just below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import TWO_PI, AnalogFilter, BandSpec, TiltDesign
from .errors import (
    AboveNyquistError,
    EmptyDesignError,
    OutOfRangeError,
    UnstableMapError,
)
from .serialize import emit_object, f17, parse_object

# Prewarped zero breaks at or above fs/2 are pinned to this fraction of fs.
ZERO_CLAMP_FRACTION = 0.499


def prewarp_constant(f1_hz: float, fs_hz: float) -> float:
    """Bilinear constant c = 2*pi*f1 / tan(pi*f1/fs); c -> 2*fs as f1 -> 0."""
    if not 0.0 < f1_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"need 0 < f1 < fs/2, got f1={f1_hz}, fs={fs_hz}")
    return TWO_PI * f1_hz / math.tan(math.pi * f1_hz / fs_hz)


def prewarp_break(f_k_hz: float, f1_hz: float, fs_hz: float) -> float:
    """Prewarped break frequency f1 * tan(pi*f_k/fs) / tan(pi*f1/fs).

    Fixed point at f_k == f1; strictly increasing on (0, fs/2).
    """
    if not 0.0 < f_k_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"break {f_k_hz} Hz not inside (0, fs/2)")
    if not 0.0 < f1_hz < 0.5 * fs_hz:
        raise AboveNyquistError(f"anchor {f1_hz} Hz not inside (0, fs/2)")
    return f1_hz * math.tan(math.pi * f_k_hz / fs_hz) / math.tan(math.pi * f1_hz / fs_hz)


def _margin_rule_count(breaks: np.ndarray, fs_hz: float) -> int:
    nyquist = 0.5 * fs_hz
    in_range = int(np.count_nonzero(breaks <= nyquist))
    if in_range == 0:
        raise EmptyDesignError(f"no break at or below {nyquist} Hz")
    if in_range == len(breaks):
        return in_range
    return in_range - 1


def truncate_to_nyquist(analog_breaks_hz, fs_hz: float) -> int:
    """Number of poles to keep below the Nyquist limit with a one-interval margin.

    If any break exceeds fs/2, the first *discarded* break must still lie at
    or below fs/2, so the kept count is one less than the number of in-range
    breaks; if the whole ladder sits below fs/2, everything is kept.  Raises
    EmptyDesignError when no break lies at or below fs/2.
    """
    breaks = np.asarray(analog_breaks_hz, dtype=np.float64)
    if breaks.ndim != 1 or len(breaks) == 0:
        raise OutOfRangeError("need a non-empty break list")
    if np.any(np.diff(breaks) <= 0.0):
        raise OutOfRangeError("breaks must be strictly increasing")
    return _margin_rule_count(breaks, fs_hz)


@dataclass(frozen=True)
class DigitizationParams:
    """Sample rate plus the bilinear constant bound to a design's f1."""

    sample_rate_hz: float
    c: float

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0.0:
            raise OutOfRangeError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not self.c > 0.0:
            raise OutOfRangeError(f"bilinear constant must be positive, got {self.c}")
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "c", float(self.c))

    @property
    def T(self) -> float:
        return 1.0 / self.sample_rate_hz

    @classmethod
    def for_design(cls, f1_hz: float, fs_hz: float) -> "DigitizationParams":
        return cls(sample_rate_hz=fs_hz, c=prewarp_constant(f1_hz, fs_hz))


@dataclass(frozen=True)
class Section:
    """First-order digital section (b0 + b1/z) / (1 + a1/z); pole at -a1."""

    b0: float
    b1: float
    a1: float


@dataclass(frozen=True)
class DigitalFilter:
    """Cascade of first-order sections with a single block-level gain."""

    sections: tuple[Section, ...]
    gain: float
    sample_rate_hz: float

    def __post_init__(self) -> None:
        for s in self.sections:
            if not abs(s.a1) < 1.0:
                raise UnstableMapError(f"section pole {-s.a1} is not inside (-1, 1)")
        if not (self.gain > 0.0 and math.isfinite(self.gain)):
            raise OutOfRangeError(f"gain must be positive and finite, got {self.gain}")
        object.__setattr__(self, "sections", tuple(self.sections))
        object.__setattr__(self, "gain", float(self.gain))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))


def digital_response(dfilt: DigitalFilter, f_hz):
    """Complex response of the cascade at f_hz (scalar or array)."""
    f = np.asarray(f_hz, dtype=np.float64)
    zinv = np.exp(-1j * TWO_PI * f / dfilt.sample_rate_hz)
    h = np.full(zinv.shape, dfilt.gain, dtype=np.complex128)
    for s in dfilt.sections:
        h *= (s.b0 + s.b1 * zinv) / (1.0 + s.a1 * zinv)
    return h if f.ndim else complex(h)


def _prewarp_values(values_rad_s: np.ndarray, c: float, fs_hz: float) -> np.ndarray:
    """Map negative-real s-plane values to their prewarped positions -c*tan(|s|T/2)."""
    half = 0.5 * np.abs(values_rad_s) / fs_hz
    if np.any(half >= 0.5 * math.pi):
        raise AboveNyquistError("break frequency at or above fs/2 cannot be prewarped")
    return -c * np.tan(half)


def _scalar_log_mag(roots: np.ndarray, omega: float) -> float:
    """ln prod |j omega - root| over real roots; the log magnitude at omega is
    the zero sum minus the pole sum plus the log gain."""
    return 0.5 * float(np.log(omega * omega + roots * roots).sum())


def _prewarp_zeros_clamped(zeros_rad_s: np.ndarray, c: float, fs_hz: float) -> np.ndarray:
    """Prewarp zeros, pinning any break that reaches fs/2 just below it."""
    clamp = -TWO_PI * ZERO_CLAMP_FRACTION * fs_hz
    half = np.abs(zeros_rad_s) / (2.0 * fs_hz)
    return np.where(half < 0.5 * math.pi, np.maximum(-c * np.tan(half), clamp), clamp)


@dataclass(frozen=True)
class _CoreMap:
    """Everything the bilinear map produces before sections are assembled."""

    prew_poles: np.ndarray
    prew_zeros: np.ndarray
    section_dens: np.ndarray
    a1: np.ndarray
    log_gain: float


def _core_map(filt: AnalogFilter, params: DigitizationParams, band: BandSpec | None) -> _CoreMap:
    if len(filt.zeros) > len(filt.poles):
        raise UnstableMapError(
            "more zeros than poles: the substitution would place digital poles at z=-1; "
            "use matched pole/zero counts (positive integer slope parts are analog-only)"
        )
    fs = params.sample_rate_hz
    c = params.c
    # Repeated integer-part poles give tied breaks, so apply the margin rule
    # directly instead of the strictly-increasing public op.
    pole_breaks = np.abs(filt.poles) / TWO_PI
    n_keep = _margin_rule_count(pole_breaks, fs)
    if n_keep == 0:
        raise EmptyDesignError("no pole survives Nyquist truncation")

    kept_poles = filt.poles[:n_keep]
    kept_zeros = filt.zeros[: min(len(filt.zeros), n_keep)]
    prew_poles = _prewarp_values(kept_poles, c, fs)
    prew_zeros = _prewarp_zeros_clamped(kept_zeros, c, fs)

    section_dens = c - prew_poles
    a1 = -(c + prew_poles) / section_dens
    if np.any(np.abs(a1) >= 1.0):
        raise UnstableMapError("a mapped pole landed on or outside the unit circle")

    log_gain = math.log(filt.gain)
    if band is not None:
        fc = band.center_hz
        if fc >= 0.5 * fs:
            raise AboveNyquistError(f"band center {fc} Hz is not below fs/2")
        target = float(filt.log_magnitude(np.array(TWO_PI * fc)))
        wc_prew = c * math.tan(math.pi * fc / fs)
        have = (log_gain + _scalar_log_mag(prew_zeros, wc_prew)
                - _scalar_log_mag(prew_poles, wc_prew))
        log_gain += target - have
    return _CoreMap(
        prew_poles=prew_poles,
        prew_zeros=prew_zeros,
        section_dens=section_dens,
        a1=a1,
        log_gain=log_gain,
    )


def _numerators(prew_zeros: np.ndarray, section_dens: np.ndarray, c: float):
    """b0/b1 per section; sections past the zero list get the zero at z=-1."""
    n = len(section_dens)
    b0 = np.empty(n)
    b1 = np.empty(n)
    nz = len(prew_zeros)
    b0[:nz] = (c - prew_zeros) / section_dens[:nz]
    b1[:nz] = -(c + prew_zeros) / section_dens[:nz]
    b0[nz:] = 1.0 / section_dens[nz:]
    b1[nz:] = 1.0 / section_dens[nz:]
    return b0, b1


def bilinear(
    filt: AnalogFilter, params: DigitizationParams, band: BandSpec | None = None
) -> DigitalFilter:
    """Digitize an analog prototype into a first-order cascade.

    The result is the exact image of the prewarped, truncated prototype under
    the substitution (see prewarped_prototype), so the response identity
    H_d(e^{j w T}) == H_prototype(j c tan(w T / 2)) holds to rounding.  When
    ``band`` is given, the overall gain is chosen so the digital magnitude at
    the band center equals the original analog magnitude there.
    """
    core = _core_map(filt, params, band)
    b0, b1 = _numerators(core.prew_zeros, core.section_dens, params.c)
    sections = tuple(
        Section(b0=float(b0[i]), b1=float(b1[i]), a1=float(core.a1[i])) for i in range(len(b0))
    )
    return DigitalFilter(
        sections=sections, gain=math.exp(core.log_gain), sample_rate_hz=params.sample_rate_hz
    )


def prewarped_prototype(
    filt: AnalogFilter, params: DigitizationParams, band: BandSpec | None = None
) -> AnalogFilter:
    """The truncated, prewarped s-plane filter that ``bilinear`` actually maps."""
    core = _core_map(filt, params, band)
    return AnalogFilter(
        poles=core.prew_poles, zeros=core.prew_zeros, gain=math.exp(core.log_gain)
    )


@dataclass(frozen=True)
class ModulationContext:
    """Fixed-pole state needed to rebuild numerators when the slope changes.

    The poles (hence every a1) never move; a new slope only slides the zero
    anchors z_k = anchor_k * r**(-alpha), which are then re-prewarped and
    re-mapped.  The gain is re-leveled so the louder band edge sits at unity
    (f_min for downward tilts, f_max for upward ones): a tilt across the band
    spans (f_max/f_min)**|alpha| in gain, so any interior anchor would let a
    band edge run tens of dB hot as |alpha| approaches 1, while edge
    anchoring caps the in-band gain at one for every slope.  The pole half of
    the leveling log magnitude is fixed per anchor and computed once here.
    """

    zero_anchors: np.ndarray
    ratio: float
    params: DigitizationParams
    section_dens: np.ndarray
    prew_poles: np.ndarray
    level_omega_low: float
    level_omega_high: float
    pole_log_mag_low: float = field(init=False)
    pole_log_mag_high: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pole_log_mag_low",
                           _scalar_log_mag(self.prew_poles, self.level_omega_low))
        object.__setattr__(self, "pole_log_mag_high",
                           _scalar_log_mag(self.prew_poles, self.level_omega_high))

    def rebuild(self, alpha: float):
        """New (b0, b1, gain) for a slope value; denominators are untouched."""
        alpha = float(alpha)
        if not -1.0 <= alpha <= 1.0:
            raise OutOfRangeError(f"alpha must lie in [-1, 1], got {alpha}")
        c = self.params.c
        fs = self.params.sample_rate_hz
        zeros = self.zero_anchors * self.ratio ** (-alpha)
        prew_zeros = _prewarp_zeros_clamped(zeros, c, fs)
        b0, b1 = _numerators(prew_zeros, self.section_dens, c)
        if alpha < 0.0:
            anchor, pole_log_mag = self.level_omega_low, self.pole_log_mag_low
        else:
            anchor, pole_log_mag = self.level_omega_high, self.pole_log_mag_high
        gain = math.exp(pole_log_mag - _scalar_log_mag(prew_zeros, anchor))
        return b0, b1, gain


def digitize_design(design: TiltDesign, fs_hz: float) -> tuple[DigitalFilter, ModulationContext]:
    """Digitize a full design and capture the context for live slope changes."""
    params = DigitizationParams.for_design(design.placement.f1_hz, fs_hz)
    core = _core_map(design.filt, params, design.band)
    b0, b1 = _numerators(core.prew_zeros, core.section_dens, params.c)
    sections = tuple(
        Section(b0=float(b0[i]), b1=float(b1[i]), a1=float(core.a1[i])) for i in range(len(b0))
    )
    dfilt = DigitalFilter(sections=sections, gain=math.exp(core.log_gain), sample_rate_hz=fs_hz)

    n_sliding = len(core.prew_zeros)
    anchors = design.geometric_poles[:n_sliding].copy()

    def prewarped_anchor(f_hz: float) -> float:
        # The prototype axis runs to infinity; only frequencies at or above
        # Nyquist have no image and fall back to the clamp point.
        f_hz = min(f_hz, ZERO_CLAMP_FRACTION * fs_hz)
        return params.c * math.tan(math.pi * f_hz / fs_hz)

    context = ModulationContext(
        zero_anchors=anchors,
        ratio=design.placement.r,
        params=params,
        section_dens=core.section_dens,
        prew_poles=core.prew_poles,
        level_omega_low=prewarped_anchor(design.band.f_min_hz),
        level_omega_high=prewarped_anchor(design.band.f_max_hz),
    )
    return dfilt, context


_COEFF_FIELDS = ("sample_rate_hz", "gain", "sections")


def coefficients_to_json(dfilt: DigitalFilter) -> str:
    """Render the coefficient file (fixed field order, 17-digit reals)."""
    rows = ", ".join(
        "{" + f'"b0": {f17(s.b0)}, "b1": {f17(s.b1)}, "a1": {f17(s.a1)}' + "}"
        for s in dfilt.sections
    )
    return emit_object(
        [
            ("sample_rate_hz", f17(dfilt.sample_rate_hz)),
            ("gain", f17(dfilt.gain)),
            ("sections", "[" + rows + "]"),
        ]
    )


def coefficients_from_json(text: str) -> DigitalFilter:
    obj = parse_object(text, _COEFF_FIELDS)
    sections = tuple(
        Section(b0=float(s["b0"]), b1=float(s["b1"]), a1=float(s["a1"])) for s in obj["sections"]
    )
    return DigitalFilter(
        sections=sections, gain=float(obj["gain"]), sample_rate_hz=float(obj["sample_rate_hz"])
    )


def save_coefficients(dfilt: DigitalFilter, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(coefficients_to_json(dfilt))


def load_coefficients(path) -> DigitalFilter:
    with open(path, "r", encoding="utf-8") as fh:
        return coefficients_from_json(fh.read())
