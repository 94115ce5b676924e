import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from spectilt import BandSpec, design_tilt
from spectilt.design import PlacementResult, SlopeSpec, make_analog_filter


@pytest.fixture
def default_design():
    """The stock audio design: alpha=-1/2, 20 pairs, skip 3, 20 Hz..20 kHz."""
    return design_tilt(-0.5)


@pytest.fixture
def unit_ladder():
    """alpha=-1/2 array with p0 = -1 and one pair per neper (r = e), N = 20."""
    spec = SlopeSpec(-0.5)
    placement = PlacementResult(f1_hz=1.0 / (2.0 * math.pi), r=math.e)
    return spec, placement, make_analog_filter(spec, placement, 20)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_band(rng, f_lo=(1.0, 1000.0), ratio=(3.0, 1e4)) -> BandSpec:
    f_min = float(rng.uniform(*f_lo))
    return BandSpec(f_min, f_min * float(rng.uniform(*ratio)))


# Any JSON value, including the non-finite floats Python's json module reads
# and writes as NaN/Infinity and integers beyond the double range.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


@st.composite
def mutated_json(draw, text: str) -> str:
    """A file text with one fault: a value replaced, deleted or moved by one
    ulp, or the text cut short."""
    obj = json.loads(text)
    kind = draw(st.sampled_from(["replace", "delete", "nudge", "truncate"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(_json_paths(obj))[1:]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "nudge" and isinstance(parent[key], float):
        parent[key] = float(np.nextafter(parent[key], draw(st.sampled_from([-np.inf, np.inf]))))
    else:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(obj)
