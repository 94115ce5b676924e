"""Spectral-tilt filters built from exponentially spaced real pole-zero pairs.

Design an analog prototype whose log-magnitude slope approximates any value
alpha in [-1, 1] over a chosen band, analyze the achieved slope, digitize the
prototype with a prewarped bilinear map, and stream samples through the
resulting cascade with live slope modulation and seeded noise synthesis.
"""

from .bode import (
    conjecture_convergence,
    log_mag_slope,
    slope_report,
    write_report_csv,
)
from .design import (
    AnalogFilter,
    BandSpec,
    design_from_json,
    design_tilt,
    design_to_json,
    load_design,
    save_design,
)
from .digitize import (
    DigitalFilter,
    ModulationContext,
    coefficients_to_json,
    digital_response,
    digitize_design,
    load_coefficients,
    prewarped_prototype,
    save_coefficients,
)
from .errors import (
    AboveNyquistError,
    BadGoodBandError,
    DegenerateOrderError,
    DesignMismatchError,
    EmptyDesignError,
    FileFormatError,
    FilterDesignError,
    InvalidBandError,
    OutOfRangeError,
    PoleOnAxisError,
    StreamFormatError,
    UnstableMapError,
)

__version__ = "0.1.0"

# The streaming runtime is the only layer that needs scipy (its compiled
# cascade loop), whose import costs more than everything else here; load it
# on first use.
_RUNTIME_NAMES = frozenset({"GaussianSource", "StreamingFilter", "colored_noise", "pink_noise"})


def __getattr__(name: str):
    if name in _RUNTIME_NAMES:
        from . import runtime

        return getattr(runtime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AboveNyquistError",
    "AnalogFilter",
    "BadGoodBandError",
    "BandSpec",
    "DegenerateOrderError",
    "DesignMismatchError",
    "DigitalFilter",
    "EmptyDesignError",
    "FileFormatError",
    "FilterDesignError",
    "GaussianSource",
    "InvalidBandError",
    "ModulationContext",
    "OutOfRangeError",
    "PoleOnAxisError",
    "StreamFormatError",
    "StreamingFilter",
    "UnstableMapError",
    "coefficients_to_json",
    "colored_noise",
    "conjecture_convergence",
    "design_from_json",
    "design_tilt",
    "design_to_json",
    "digital_response",
    "digitize_design",
    "load_coefficients",
    "load_design",
    "log_mag_slope",
    "pink_noise",
    "prewarped_prototype",
    "save_coefficients",
    "save_design",
    "slope_report",
    "write_report_csv",
]
