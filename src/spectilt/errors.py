"""Exception types raised by the design, analysis, and digitization layers."""


class FilterDesignError(ValueError):
    """Base class for all validation and design failures in this package."""


class OutOfRangeError(FilterDesignError):
    """A slope or parameter value lies outside its admissible interval."""


class InvalidBandError(FilterDesignError):
    """A frequency band is empty, inverted, non-positive, or too wide for float64."""


class DegenerateOrderError(FilterDesignError):
    """Order / skip combination leaves no degrees of freedom for the pole ratio."""


class PoleOnAxisError(FilterDesignError):
    """A pole (or zero) sits at s = 0, where the response is singular."""


class BadGoodBandError(FilterDesignError):
    """Skip count too large: the requested good band is empty."""


class AboveNyquistError(FilterDesignError):
    """A break frequency meets or exceeds half the sample rate."""


class EmptyDesignError(FilterDesignError):
    """Truncation leaves no usable pole below the Nyquist limit, or a cascade has no section."""


class UnstableMapError(FilterDesignError):
    """Digitization produced (or would produce) a pole on or outside the unit circle."""


class StreamFormatError(FilterDesignError):
    """A raw sample stream is malformed, e.g. it ends in a partial sample."""


class FileFormatError(FilterDesignError):
    """A design or coefficient file is not valid JSON of the expected shape."""


class DesignMismatchError(FilterDesignError):
    """A design file's stored arrays differ from those its inputs re-derive."""
