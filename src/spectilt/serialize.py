"""Fixed-layout JSON emission with round-trip-exact floats.

The design and coefficient files keep a fixed field order and serialize
every real with 17 significant digits, which is enough to reconstruct the
exact IEEE double on load.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import FileFormatError


# 17 significant digits: enough for an exact double round trip.
REAL_FORMAT = ".17g"


def f17(x: float) -> str:
    """Format a float with REAL_FORMAT."""
    return format(float(x), REAL_FORMAT)


def float_list(xs: list[float]) -> str:
    """A JSON array of Python floats, each formatted as f17 formats it, in one
    %-format call."""
    return "[" + ", ".join(["%" + REAL_FORMAT] * len(xs)) % tuple(xs) + "]"


def emit_object(fields: list[tuple[str, str]]) -> str:
    """Assemble a one-level JSON object from pre-rendered values, in order."""
    body = ",\n".join(f'  "{key}": {value}' for key, value in fields)
    return "{\n" + body + "\n}\n"


def parse_object(text: str, required: tuple[str, ...]) -> dict[str, Any]:
    """Parse a JSON object and check that every required field is present."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError("expected a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise FileFormatError(f"missing fields: {', '.join(missing)}")
    return obj


def real(value: Any, name: str) -> float:
    """A parsed JSON number as a finite float; anything else is a format error."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the double range
        pass
    raise FileFormatError(f"{name} must be a finite number, got {value!r:.40}")


def integer(value: Any, name: str) -> int:
    """A parsed JSON integer; anything else is a format error."""
    if type(value) is not int:
        raise FileFormatError(f"{name} must be an integer, got {value!r:.40}")
    return value
