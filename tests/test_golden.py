"""Golden bit-identity check of every output the package writes.

The digest file ``golden_digests.json`` beside this module holds one SHA-256
per item, keyed so that a mismatch names the design:

- ``design ...``: the design file text (``design_to_json``) of every grid
  design: 8 slopes x 4 (order, skip) pairs x 3 bands x integer parts 0, -1
  and -2, plus integer part +1 designs;
- ``bode ...``: the slope report CSV text (``write_report_csv`` with no
  metadata, 64 points per pole interval) of every grid design;
- ``coeffs ... fs=...``: the coefficient file text of
  ``digitize_design(design, fs)[0]`` at 44.1, 48 and 96 kHz, or the name of
  the error the design raises there;
- ``stream-static-<chunk> ...`` and ``stream-modulated ...``: the float64
  bytes of a seeded 64 Ki-sample stream for six designs, filtered with the
  static coefficients in chunks of 63 and 65536 samples, and with the slope
  swept from -1 to 1 by ``set_alpha`` before every 64-sample block.

Float results can differ in the last bit between numpy or scipy releases, so
the digest file records the versions it was made with and every test fails,
naming both versions, when the running ones differ.

To regenerate after a change that is meant to alter outputs, or for a new
toolchain, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py

and commit the rewritten ``tests/golden_digests.json`` with the change.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest
import scipy

from spectilt import runtime
from spectilt import (
    FilterDesignError,
    StreamingFilter,
    coefficients_to_json,
    design_tilt,
    design_to_json,
    digitize_design,
    slope_report,
)
from spectilt.bode import write_report_csv

DIGEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

SLOPES = (-1.0, -0.9837, -0.5, -0.3, 0.0, 0.25, 0.6180339887498949, 1.0)
ORDERS = ((8, 1), (12, 2), (20, 3), (24, 4))
BANDS = ((20.0, 20000.0), (50.0, 5000.0), (100.0, 16000.0))
INTEGER_PARTS = (0, -1, -2)
UPWARD_SLOPES = (-0.5, 0.25)  # integer part +1 designs, analog only
SAMPLE_RATES = (44100.0, 48000.0, 96000.0)

STREAM_SAMPLES = 1 << 16
STREAM_SEED = 20240817
STATIC_CHUNKS = (63, 65536)
CONTROL_BLOCK = 64
# name -> (design_tilt arguments, sample rate)
STREAM_DESIGNS = {
    "stock-48k": ((-0.5, 20, 3, 20.0, 20000.0, 0), 48000.0),
    "integer-part-2-44k1": ((-0.9837, 20, 3, 20.0, 20000.0, -2), 44100.0),
    "full-integrator-48k": ((-1.0, 20, 3, 20.0, 20000.0, 0), 48000.0),
    "flat-44k1": ((0.0, 12, 2, 50.0, 5000.0, 0), 44100.0),
    "upward-96k": ((0.7, 12, 2, 50.0, 5000.0, 0), 96000.0),
    "integer-part-1-48k": ((0.3, 8, 1, 100.0, 16000.0, -1), 48000.0),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _design(alpha, order, skip, f_min, f_max, integer_part):
    return design_tilt(alpha, order=order, skip=skip, f_min_hz=f_min, f_max_hz=f_max,
                       integer_part=integer_part)


def _grid():
    """(key, design_tilt arguments) for every grid design."""
    cells = [(a, n, k, lo, hi, ip) for ip in INTEGER_PARTS for a in SLOPES
             for n, k in ORDERS for lo, hi in BANDS]
    cells += [(a, n, k, lo, hi, 1) for a in UPWARD_SLOPES for n, k in ORDERS for lo, hi in BANDS]
    return [(f"a={a!r} n={n} k={k} band={lo:g}-{hi:g} ip={ip}", (a, n, k, lo, hi, ip))
            for a, n, k, lo, hi, ip in cells]


def grid_designs():
    """Every grid design with a digital image (integer part 0, -1 or -2)."""
    for _, args in _grid():
        if args[5] <= 0:
            yield _design(*args)


def design_digests() -> dict[str, str]:
    return {f"design {key}": _sha(design_to_json(_design(*args))) for key, args in _grid()}


def bode_digests() -> dict[str, str]:
    out = {}
    for key, args in _grid():
        design = _design(*args)
        fh = io.StringIO()
        write_report_csv(slope_report(design.filt, design.spec, design.placement, design.n,
                                      design.k_skip), {}, fh)
        out[f"bode {key}"] = _sha(fh.getvalue())
    return out


def coefficient_digests() -> dict[str, str]:
    out = {}
    for key, args in _grid():
        design = _design(*args)
        for fs in SAMPLE_RATES:
            try:
                text = coefficients_to_json(digitize_design(design, fs)[0])
            except FilterDesignError as exc:
                text = f"raises {type(exc).__name__}"
            out[f"coeffs {key} fs={fs:g}"] = _sha(text)
    return out


def stream_outputs():
    """(key, filtered samples) for every golden stream."""
    x = np.random.default_rng(STREAM_SEED).standard_normal(STREAM_SAMPLES)
    for name, (args, fs) in STREAM_DESIGNS.items():
        design = _design(*args)
        dfilt = digitize_design(design, fs)[0]
        for chunk in STATIC_CHUNKS:
            filt = StreamingFilter(dfilt)
            y = np.concatenate([filt.process(x[i:i + chunk]) for i in range(0, len(x), chunk)])
            yield f"stream-static-{chunk} {name}", y
        filt = StreamingFilter.for_design(design, fs)
        n_blocks = len(x) // CONTROL_BLOCK
        pieces = []
        for j in range(n_blocks):
            filt.set_alpha(-1.0 + 2.0 * j / (n_blocks - 1))
            pieces.append(filt.process(x[j * CONTROL_BLOCK:(j + 1) * CONTROL_BLOCK]))
        yield f"stream-modulated {name}", np.concatenate(pieces)


def stream_digests() -> dict[str, str]:
    return {key: _sha(y.astype("<f8").tobytes()) for key, y in stream_outputs()}


def toolchain() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    with open(DIGEST_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["toolchain"] != toolchain():
        pytest.fail(f"golden digests were made with {stored['toolchain']}, running "
                    f"{toolchain()}: regenerate them (see the module docstring)")
    return stored["digests"]


def _assert_matches(golden: dict[str, str], computed: dict[str, str]) -> None:
    expected = {key: value for key, value in golden.items()
                if key.split(" ", 1)[0] in {k.split(" ", 1)[0] for k in computed}}
    missing = sorted(expected.keys() - computed.keys())
    extra = sorted(computed.keys() - expected.keys())
    changed = sorted(key for key in expected.keys() & computed.keys()
                     if expected[key] != computed[key])
    assert not (missing or extra or changed), (
        f"{len(changed)} changed, {len(missing)} missing, {len(extra)} new: "
        f"{(changed + missing + extra)[:10]}"
    )


def test_design_files_bit_identical(golden):
    _assert_matches(golden, design_digests())


def test_bode_reports_bit_identical(golden):
    _assert_matches(golden, bode_digests())


def test_coefficient_files_bit_identical(golden):
    _assert_matches(golden, coefficient_digests())


def test_streams_bit_identical(golden):
    _assert_matches(golden, stream_digests())


def test_public_sosfilt_fallback_gives_the_same_bits(monkeypatch):
    # Streaming runs scipy's compiled loop directly; where that private
    # module cannot be used, the runtime falls back to scipy.signal.sosfilt,
    # which wraps the same loop.  Both must give every golden stream exactly.
    compiled = dict(stream_outputs())
    monkeypatch.setattr(runtime, "_cascade", runtime._public_cascade)
    public = dict(stream_outputs())
    assert compiled.keys() == public.keys()
    assert [key for key in compiled if not np.array_equal(compiled[key], public[key])] == []


def main() -> None:
    digests = {**design_digests(), **bode_digests(), **coefficient_digests(),
               **stream_digests()}
    with open(DIGEST_PATH, "w", encoding="utf-8") as fh:
        json.dump({"toolchain": toolchain(), "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGEST_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
