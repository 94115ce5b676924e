"""Closed-form analog prototypes for spectral-tilt (fractional-slope) filters.

A tilt filter approximates |H(jw)| ~ w^alpha over a band by alternating real
poles and zeros on the negative-real axis.  Poles sit at a constant ratio r
(uniform spacing ln r on a log-frequency axis) and the zero array is the pole
array slid by -alpha*ln r, so the average log-log magnitude slope equals
alpha.  Everything here is closed form: given the order, the skip count, and
the band, the first break frequency and the ratio come from a 2x2 log-linear
system, and the arrays follow by geometric recursion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DegenerateOrderError,
    DesignMismatchError,
    InvalidBandError,
    OutOfRangeError,
    PoleOnAxisError,
)
from .serialize import emit_object, f17, float_list, integer, parse_object, real

TWO_PI = 2.0 * math.pi

# Integer-part poles/zeros break two decades below the first array pole,
# keeping their transition region well outside the design band.
INTEGER_PART_BREAK_DIV = 100.0
MAX_INTEGER_PART = 4
# Far above any useful ladder, and low enough that a design of this order
# makes a round trip through its file in tens of milliseconds.
MAX_ORDER = 10_000

# Highest angular frequency a ladder may reach: a sum of two squares below it
# stays finite, with room left for the ladder's rounding.
_MAX_OMEGA = 0.5 * math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class SlopeSpec:
    """Target log-log magnitude slope, in nepers per neper.

    ``alpha`` is the fractional slope in [-1, 1]; ``integer_part`` adds whole
    slope units realized as repeated poles (negative) or zeros (positive)
    breaking far below the band.
    """

    alpha: float
    integer_part: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or not -1.0 <= self.alpha <= 1.0:
            raise OutOfRangeError(f"alpha must lie in [-1, 1], got {self.alpha}")
        if abs(int(self.integer_part)) > MAX_INTEGER_PART:
            raise OutOfRangeError(
                f"|integer_part| must be <= {MAX_INTEGER_PART}, got {self.integer_part}"
            )
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "integer_part", int(self.integer_part))

    @property
    def total_slope(self) -> float:
        return self.alpha + self.integer_part


@dataclass(frozen=True)
class BandSpec:
    """Frequency band of interest, in Hz."""

    f_min_hz: float
    f_max_hz: float

    def __post_init__(self) -> None:
        if not (0.0 < self.f_min_hz < self.f_max_hz) or not math.isfinite(self.f_max_hz):
            raise InvalidBandError(
                f"need 0 < f_min < f_max, got [{self.f_min_hz}, {self.f_max_hz}]"
            )
        object.__setattr__(self, "f_min_hz", float(self.f_min_hz))
        object.__setattr__(self, "f_max_hz", float(self.f_max_hz))

    @property
    def center_hz(self) -> float:
        """Log-geometric band center."""
        return math.sqrt(self.f_min_hz * self.f_max_hz)


@dataclass(frozen=True)
class PlacementResult:
    """First pole break frequency and pole ratio solved from the design system."""

    f1_hz: float
    r: float

    def __post_init__(self) -> None:
        if not (self.f1_hz > 0.0 and math.isfinite(self.f1_hz)):
            raise OutOfRangeError(f"f1 must be positive, got {self.f1_hz}")
        if not (self.r > 1.0 and math.isfinite(self.r)):
            raise OutOfRangeError(f"pole ratio must exceed 1, got {self.r}")
        object.__setattr__(self, "f1_hz", float(self.f1_hz))
        object.__setattr__(self, "r", float(self.r))

    @property
    def delta_p(self) -> float:
        """Pole spacing in nepers: ln r."""
        return math.log(self.r)


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def value_eq(self, other) -> bool:
    """Field-by-field equality for frozen dataclasses that hold arrays.  Each is
    declared eq=False with ``__eq__ = value_eq`` in its body, so it is unhashable
    instead of getting generated methods that fail on the arrays."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


@dataclass(frozen=True, eq=False)
class AnalogFilter:
    """s-plane prototype: negative-real poles and zeros plus a positive gain.

    Both arrays are ordered by increasing break frequency (magnitude).  For
    tilt designs the pole magnitudes form a geometric sequence with ratio r
    and the zeros are the poles slid by _slide_zeros.
    """

    poles: np.ndarray
    zeros: np.ndarray
    gain: float = 1.0

    def __post_init__(self) -> None:
        poles = _as_readonly(self.poles)
        zeros = _as_readonly(self.zeros)
        for name, arr in (("pole", poles), ("zero", zeros)):
            if arr.ndim != 1:
                raise OutOfRangeError(f"{name}s must be a one-dimensional array, "
                                      f"got shape {arr.shape}")
            # Finite, negative and ordered by magnitude in one pass (a NaN
            # fails <=, -0.0 fails < 0); only a failing array is scanned again
            # to name its fault.
            if len(arr) and not (arr[0] < 0.0 and arr[-1] > -np.inf
                                 and (arr[1:] <= arr[:-1]).all()):
                if (arr == 0.0).any():
                    raise PoleOnAxisError(f"{name} at s = 0 is not representable")
                if not ((arr < 0.0) & (arr > -np.inf)).all():
                    raise OutOfRangeError(f"every {name} must be a finite negative real")
                raise OutOfRangeError(f"{name}s must be ordered by increasing magnitude")
        if not (self.gain > 0.0 and math.isfinite(self.gain)):
            raise OutOfRangeError(f"gain must be positive and finite, got {self.gain}")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "gain", float(self.gain))

    __eq__ = value_eq

    def log_magnitude(self, omega) -> np.ndarray:
        """ln |H(j omega)|, accumulated factor by factor (no overflow for any order)."""
        w = np.asarray(omega, dtype=np.float64)
        w2 = w * w
        return pole_zero_sum(self.poles, self.zeros,
                             lambda root: 0.5 * np.log(w2 + root * root),
                             np.full(w2.shape, math.log(self.gain)))

    def phase(self, omega) -> np.ndarray:
        """arg H(j omega); each real-axis factor contributes an angle in [0, pi)."""
        w = np.asarray(omega, dtype=np.float64)
        return pole_zero_sum(self.poles, self.zeros, lambda root: np.arctan2(w, -root),
                             np.zeros(w.shape))


def pole_zero_sum(poles: np.ndarray, zeros: np.ndarray, term, start):
    """start + sum of term(zero) over the zeros - sum of term(pole) over the poles.

    Every analog sum over the prototype's factors goes through here (the
    digital leveling sums are one-sided: see digitize._scalar_log_mag).  The
    terms are interleaved, so for interlaced arrays the running sum stays O(1)
    instead of O(order), keeping rounding noise far below the ripple being
    measured, and a fully canceling array (alpha = 0) sums to exactly ``start``.
    """
    out = start
    zeros, poles = zeros.tolist(), poles.tolist()  # float roots: faster scalar math
    for k in range(max(len(zeros), len(poles))):
        if k < len(zeros):
            out += term(zeros[k])
        if k < len(poles):
            out -= term(poles[k])
    return out


def place_poles(n: int, k_skip: int, band: BandSpec) -> PlacementResult:
    """Solve for the first pole frequency f1 and ratio r.

    The k_skip-th pole breaks at f_min and the (n-1-k_skip)-th at f_max::

        ln f1 + k_skip       * ln r = ln f_min
        ln f1 + (n-1-k_skip) * ln r = ln f_max

    Raises DegenerateOrderError when n - 1 - 2*k_skip <= 0 (the system is
    singular or would give r <= 1), and OutOfRangeError past MAX_ORDER, before
    anything of size n is allocated.
    """
    n = int(n)
    k_skip = int(k_skip)
    if n < 2:
        raise DegenerateOrderError(f"need at least 2 poles, got n={n}")
    if n > MAX_ORDER:
        raise OutOfRangeError(f"order must be <= {MAX_ORDER}, got n={n}")
    if k_skip < 0:
        raise OutOfRangeError(f"skip count must be >= 0, got {k_skip}")
    dof = n - 1 - 2 * k_skip
    if dof <= 0:
        raise DegenerateOrderError(
            f"n - 1 - 2*k_skip = {dof} <= 0: no interval left for the band"
        )
    ln_r = math.log(band.f_max_hz / band.f_min_hz) / dof
    f1 = band.f_min_hz * math.exp(-k_skip * ln_r)
    return PlacementResult(f1_hz=f1, r=math.exp(ln_r))


def _slide_zeros(anchors, r: float, alpha: float) -> np.ndarray:
    """Zeros for slope alpha: the anchors slid by -alpha*ln r in log frequency.
    The one slide rule: make_analog_filter slides the pole ladder and
    ModulationContext.rebuild the kept ladder poles, so both agree bit for bit."""
    return anchors * r ** (-alpha)


def make_analog_filter(spec: SlopeSpec, placement: PlacementResult, n: int) -> AnalogFilter:
    """Build the pole and zero arrays for a placement.

    Poles: p_k = -2*pi*f1 * r**k for k = 0..n-1, computed by cumulative
    products so that successive values are exact single multiplications.
    Zeros: the poles slid by _slide_zeros.  A nonzero integer part adds repeated
    poles (negative part) or zeros (positive part) breaking at f1/100.
    Gain is left at 1; see normalize_gain.  A ladder whose top pole times r
    would pass half of sqrt(float max) raises InvalidBandError.
    """
    return AnalogFilter(*_ladder(spec, placement, n))


def _ladder(spec: SlopeSpec, placement: PlacementResult, n: int) -> tuple[np.ndarray, np.ndarray]:
    """make_analog_filter's pole and zero arrays, not yet checked by AnalogFilter."""
    n = int(n)
    if n < 1:
        raise OutOfRangeError(f"need at least one pole, got n={n}")
    # f1 * r**n, the top pole times r, bounds the top zero and the bode grid's end.
    ln_top_hz = math.log(placement.f1_hz) + n * placement.delta_p
    if ln_top_hz > math.log(_MAX_OMEGA / TWO_PI):
        raise InvalidBandError(
            f"band too wide: the pole ladder from f1 = {placement.f1_hz:g} Hz reaches "
            f"10^{ln_top_hz / math.log(10.0):.1f} Hz (top pole times r), past the "
            f"{_MAX_OMEGA / TWO_PI:.3g} Hz where squared frequencies overflow")
    r = placement.r
    steps = np.full(n, r)
    steps[0] = -TWO_PI * placement.f1_hz
    # Cumulative product: p[k+1] is exactly fl(p[k] * r), so the alpha = -1
    # zero set z[k] = fl(p[k] * r) telescopes onto the pole set bit for bit.
    poles = np.cumprod(steps)
    zeros = _slide_zeros(poles, r, spec.alpha)

    if spec.integer_part != 0:
        extra = np.full(abs(spec.integer_part), -TWO_PI * placement.f1_hz / INTEGER_PART_BREAK_DIV)
        if spec.integer_part < 0:
            poles = np.concatenate([extra, poles])
        else:
            zeros = np.sort(np.concatenate([extra, zeros]))[::-1]
    return poles, zeros


def normalize_gain(filt: AnalogFilter, band: BandSpec) -> AnalogFilter:
    """Scale the gain so |H| is exactly 1 at the log-geometric band center.

    The sum is interleaved (see pole_zero_sum), so a fully canceling array
    (alpha = 0) yields a gain of exactly one.
    """
    return replace(filt, gain=_center_gain(filt.poles, filt.zeros, band))


def _center_gain(poles: np.ndarray, zeros: np.ndarray, band: BandSpec) -> float:
    """The gain that puts |H| at 1 at the band center (see normalize_gain)."""
    wc = TWO_PI * band.center_hz
    wc2 = wc * wc
    log_mag = pole_zero_sum(poles, zeros, lambda root: 0.5 * math.log(wc2 + root * root), 0.0)
    return math.exp(-log_mag)


@dataclass(frozen=True, eq=False)
class TiltDesign:
    """A complete design record: inputs, solved placement, and the prototype."""

    spec: SlopeSpec
    band: BandSpec
    n: int
    k_skip: int
    placement: PlacementResult
    filt: AnalogFilter

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k_skip", int(self.k_skip))

    __eq__ = value_eq

    @property
    def geometric_poles(self) -> np.ndarray:
        """The n constant-ratio poles, excluding any integer-part extras."""
        n_extra = len(self.filt.poles) - self.n
        return self.filt.poles[n_extra:]


def design_tilt(
    alpha: float,
    order: int = 20,
    skip: int = 3,
    f_min_hz: float = 20.0,
    f_max_hz: float = 20000.0,
    integer_part: int = 0,
) -> TiltDesign:
    """Place, build, and gain-normalize a tilt filter in one call.

    The same filter as normalize_gain(make_analog_filter(...), band), leveled
    before it is wrapped, so AnalogFilter checks the arrays once.
    """
    spec = SlopeSpec(alpha=alpha, integer_part=integer_part)
    band = BandSpec(f_min_hz=f_min_hz, f_max_hz=f_max_hz)
    placement = place_poles(order, skip, band)
    poles, zeros = _ladder(spec, placement, order)
    try:
        gain = _center_gain(poles, zeros, band)
    except ValueError:  # a band center so low that its square underflows to 0
        AnalogFilter(poles, zeros)  # a ladder with a root at s = 0 still says so first
        raise
    filt = AnalogFilter(poles=poles, zeros=zeros, gain=gain)
    return TiltDesign(spec=spec, band=band, n=order, k_skip=skip, placement=placement, filt=filt)


_DESIGN_FIELDS = (
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
_RENDER = {float: f17, int: str, list: float_list}


def _design_record(design: TiltDesign) -> dict:
    """Each design-file field's value, keyed by _DESIGN_FIELDS in file order:
    ints, floats, and the roots as lists of floats."""
    return dict(zip(_DESIGN_FIELDS, (
        design.spec.alpha, design.spec.integer_part, design.n, design.k_skip,
        design.band.f_min_hz, design.band.f_max_hz, design.placement.f1_hz,
        design.placement.r, design.filt.poles.tolist(), design.filt.zeros.tolist(),
        design.filt.gain)))


def design_to_json(design: TiltDesign) -> str:
    """Render the design file (fixed field order, 17-digit reals)."""
    return emit_object([(key, _RENDER[type(value)](value))
                        for key, value in _design_record(design).items()])


def design_from_json(text: str) -> TiltDesign:
    """Parse a design file and re-derive the design from its inputs.

    The design is recomputed with design_tilt from alpha, integer_part, n,
    k_skip and the band; a file any of whose stored fields is not bit-equal
    to the recomputed one raises DesignMismatchError, and a malformed one
    raises FileFormatError.
    """
    obj = parse_object(text, _DESIGN_FIELDS)
    n = integer(obj["n"], "n")
    integer_part = integer(obj["integer_part"], "integer_part")
    poles = obj["poles_rad_s"]
    # Checked before re-deriving, so a corrupt n cannot size a huge array.
    if not isinstance(poles, list) or len(poles) != n + max(0, -integer_part):
        raise DesignMismatchError(f"stored poles do not fit n={n}, integer_part={integer_part}")
    design = design_tilt(real(obj["alpha"], "alpha"), order=n,
                         skip=integer(obj["k_skip"], "k_skip"),
                         f_min_hz=real(obj["f_min_hz"], "f_min_hz"),
                         f_max_hz=real(obj["f_max_hz"], "f_max_hz"), integer_part=integer_part)
    record = _design_record(design)
    if obj != record:  # a faithful file compares equal in one step; else name the field
        for key, value in record.items():
            if obj[key] != value:
                raise DesignMismatchError(f"stored {key} differs from the value re-derived "
                                          "from alpha, integer_part, n, k_skip and the band")
    return design


def save_design(design: TiltDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design_to_json(design))


def load_design(path) -> TiltDesign:
    with open(path, "r", encoding="utf-8") as fh:
        return design_from_json(fh.read())
