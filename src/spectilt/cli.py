"""Command-line front end: design, analyze, digitize, stream, synthesize.

Subcommands mirror the library layers.  Sample streams are raw little-endian
float64 with no header; the sample rate always comes from a flag.  Exit codes:
0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

import numpy as np

from . import __version__
from .bode import DEFAULT_POINTS_PER_INTERVAL, slope_report, write_report_csv
from .design import (
    BandSpec,
    TiltDesign,
    design_tilt,
    design_to_json,
    load_design,
)
from .digitize import coefficients_to_json, digitize_design, load_coefficients
from .errors import FilterDesignError, OutOfRangeError, StreamFormatError

USAGE_ERROR = 2
INTERNAL_ERROR = 1

STREAM_CHUNK = 1 << 16


def _add_band_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fmin", type=float, default=20.0,
                   help="lower edge of the roll-off band in Hz (default 20)")
    p.add_argument("--fmax", type=float, default=20000.0,
                   help="upper edge of the roll-off band in Hz (default 20000); "
                        "a lower edge f0 with bandwidth bw maps to --fmin f0 --fmax f0+bw")


@contextlib.contextmanager
def _open_stream(path: str | None, mode: str):
    """Open ``path`` in ``mode``; None or "-" lends stdin or stdout instead,
    which is left open."""
    if path is None or path == "-":
        std = sys.stdin if "r" in mode else sys.stdout
        yield std.buffer if "b" in mode else std
    else:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh


def _write_text(path: str | None, text: str) -> None:
    with _open_stream(path, "w") as fh:
        fh.write(text)


def _parse_range(text: str, what: str) -> range:
    """Parse 'start:stop[:step]' (inclusive stop) into a range."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise FilterDesignError(f"{what} must look like start:stop[:step], got {text!r}")
    start, stop = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    if step < 1 or stop < start:
        raise FilterDesignError(f"{what} range {text!r} is empty or descending")
    return range(start, stop + 1, step)


def cmd_design(args) -> int:
    design = design_tilt(
        args.alpha,
        order=args.order,
        skip=args.skip,
        f_min_hz=args.fmin,
        f_max_hz=args.fmax,
        integer_part=args.integer_part,
    )
    _write_text(args.output, design_to_json(design))
    return 0


def _design_metadata(design: TiltDesign) -> dict[str, str]:
    return {
        "alpha": repr(design.spec.alpha),
        "integer_part": str(design.spec.integer_part),
        "n": str(design.n),
        "k_skip": str(design.k_skip),
        "f_min_hz": repr(design.band.f_min_hz),
        "f_max_hz": repr(design.band.f_max_hz),
        "f1_hz": repr(design.placement.f1_hz),
        "r": repr(design.placement.r),
        "gain": repr(design.filt.gain),
    }


def cmd_bode(args) -> int:
    design = load_design(args.design)
    report = slope_report(
        design.filt,
        design.spec,
        design.placement,
        design.n,
        design.k_skip,
        points_per_interval=args.points_per_interval,
    )
    write_report_csv(report, _design_metadata(design), sys.stdout)
    return 0


def cmd_digitize(args) -> int:
    design = load_design(args.design)
    dfilt, _ = digitize_design(design, args.fs)
    dropped = len(design.filt.poles) - len(dfilt.sos)
    print(
        f"kept {len(dfilt.sos)} of {len(design.filt.poles)} analog sections "
        f"({dropped} truncated at fs={args.fs:g} Hz)",
        file=sys.stderr,
    )
    _write_text(args.output, coefficients_to_json(dfilt))
    return 0


def _write_samples(fh_out, samples: np.ndarray) -> None:
    """Write raw little-endian float64 without copying samples already in that form."""
    fh_out.write(np.ascontiguousarray(samples, dtype="<f8").data)


def _partial_sample_error(n_bytes: int) -> StreamFormatError:
    return StreamFormatError(f"input holds {n_bytes} bytes, which ends in a partial "
                             "sample: raw streams are whole 8-byte float64 values")


def _check_input_file(fh_in) -> None:
    """Reject a regular input file that ends in a partial sample or holds a
    NaN or Inf before any output is written.  The file is read once in
    STREAM_CHUNK-sample pieces and rewound; pipes are checked block by block
    as _stream_blocks pumps them."""
    try:
        info = os.fstat(fh_in.fileno())
        start = fh_in.tell()
    except OSError:  # not seekable, or no file descriptor at all
        return
    if not stat.S_ISREG(info.st_mode):
        return
    if (info.st_size - start) % 8:
        raise _partial_sample_error(info.st_size - start)
    while raw := fh_in.read(STREAM_CHUNK * 8):
        if not np.isfinite(np.frombuffer(raw, dtype="<f8")).all():
            raise StreamFormatError("input contains NaN or Inf")
    fh_in.seek(start)


def _stream_blocks(fh_in, fh_out, filt, block: int, schedule) -> None:
    """Pump raw float64 samples through the filter, updating the slope per
    block when a schedule is given."""
    pos = 0
    while True:
        raw = fh_in.read(block * 8)
        if not raw:
            break
        if len(raw) % 8:
            raise _partial_sample_error(8 * pos + len(raw))
        x = np.frombuffer(raw, dtype="<f8")
        if schedule is not None:
            filt.set_alpha(schedule(pos / filt.sample_rate_hz))
        y = filt.process(x)
        _write_samples(fh_out, y)
        pos += len(x)
    fh_out.flush()


def _parse_sweep(text: str):
    """Schedule t -> alpha for 'a0:a1:seconds', checked whole before streaming."""
    parts = text.split(":")
    if len(parts) != 3:
        raise FilterDesignError("--alpha-sweep must look like a0:a1:seconds")
    a0, a1, seconds = (float(p) for p in parts)
    for end in (a0, a1):
        if not -1.0 <= end <= 1.0:
            raise OutOfRangeError(f"--alpha-sweep endpoints must lie in [-1, 1], got {end}")
    if not seconds > 0.0:
        raise FilterDesignError("sweep duration must be positive")

    def schedule(t: float) -> float:
        return a0 + (a1 - a0) * min(t / seconds, 1.0)

    return schedule


def cmd_apply(args) -> int:
    from .runtime import CONTROL_BLOCK, StreamingFilter

    if (args.coeffs is None) == (args.design is None):
        raise FilterDesignError("give exactly one of --coeffs FILE or --design FILE")
    if args.design is not None and args.fs is None:
        raise FilterDesignError("--design needs --fs")
    if args.alpha_sweep is not None and args.design is None:
        raise FilterDesignError("--alpha-sweep needs --design (bare coefficients "
                                "carry no pole-zero context)")
    schedule = _parse_sweep(args.alpha_sweep) if args.alpha_sweep is not None else None

    if args.design is not None:
        design = load_design(args.design)
        filt = StreamingFilter.for_design(design, args.fs)
    else:
        filt = StreamingFilter(load_coefficients(args.coeffs))
    block = CONTROL_BLOCK if schedule is not None else STREAM_CHUNK

    with _open_stream(args.input, "rb") as fh_in:
        _check_input_file(fh_in)
        with _open_stream(args.output, "wb") as fh_out:
            _stream_blocks(fh_in, fh_out, filt, block, schedule)
    return 0


def cmd_noise(args) -> int:
    from .runtime import _noise_blocks

    blocks = _noise_blocks(args.color, args.seed, args.samples, args.fs,
                           BandSpec(args.fmin, args.fmax), STREAM_CHUNK)
    with _open_stream(args.output, "wb") as fh_out:
        for samples in blocks:
            _write_samples(fh_out, samples)
        fh_out.flush()
    return 0


def cmd_sweep(args) -> int:
    orders = _parse_range(args.orders, "--orders")
    skips = _parse_range(args.skips, "--skips")
    # Every cell is solved and graded before the header goes out, so a bad
    # input exits with empty stdout.
    rows = ["n,k,max_abs_slope_error\n"]
    for n in orders:
        for k in skips:
            design = design_tilt(args.alpha, order=n, skip=k,
                                 f_min_hz=args.fmin, f_max_hz=args.fmax)
            report = slope_report(design.filt, design.spec, design.placement, n, k,
                                  points_per_interval=args.points_per_interval)
            rows.append(f"{n},{k},{report.max_abs_error_in_band!r}\n")
    sys.stdout.write("".join(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectilt",
        description="Spectral-tilt filter toolkit: closed-form fractional-slope "
                    "designs from exponentially spaced real pole-zero pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="solve a tilt design and write the design file")
    p.add_argument("--alpha", type=float, required=True,
                   help="target log-log magnitude slope in [-1, 1], nepers per neper")
    p.add_argument("--order", type=int, default=20, help="number of pole-zero pairs (default 20)")
    p.add_argument("--skip", type=int, default=3,
                   help="pairs placed outside each band edge (default 3)")
    p.add_argument("--integer-part", type=int, default=0,
                   help="extra whole slope units, |n| <= 4 (default 0)")
    _add_band_flags(p)
    p.add_argument("--output", "-o", default=None, help="design file path (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("bode", help="slope-error CSV for a design file")
    p.add_argument("--design", required=True, help="design file from the design subcommand")
    p.add_argument("--points-per-interval", type=int, default=DEFAULT_POINTS_PER_INTERVAL,
                   help="grid points per pole interval (default 64)")
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("digitize", help="map a design to digital sections via the "
                                        "prewarped bilinear transform")
    p.add_argument("--design", required=True, help="design file")
    p.add_argument("--fs", type=float, required=True, help="sample rate in Hz")
    p.add_argument("--output", "-o", default=None, help="coefficient file path (default stdout)")
    p.set_defaults(func=cmd_digitize)

    p = sub.add_parser("apply", help="filter a raw float64 sample stream")
    p.add_argument("--coeffs", default=None, help="coefficient file (static filtering)")
    p.add_argument("--design", default=None, help="design file (enables slope modulation)")
    p.add_argument("--fs", type=float, default=None, help="sample rate in Hz (with --design)")
    p.add_argument("--alpha-sweep", default=None, metavar="A0:A1:SECONDS",
                   help="linear slope sweep applied per 64-sample control block")
    p.add_argument("--input", "-i", default=None, help="input raw float64 file (default stdin)")
    p.add_argument("--output", "-o", default=None, help="output raw float64 file (default stdout)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("noise", help="deterministic colored noise (raw float64)")
    p.add_argument("--color", type=float, default=-0.5,
                   help="magnitude slope alpha; -0.5 is pink (default)")
    p.add_argument("--seed", type=int, default=0, help="64-bit generator seed (default 0)")
    p.add_argument("--samples", type=int, required=True, help="number of samples")
    p.add_argument("--fs", type=float, default=48000.0, help="sample rate in Hz (default 48000)")
    _add_band_flags(p)
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("sweep", help="max in-band slope error over an (order, skip) grid")
    p.add_argument("--alpha", type=float, required=True, help="target slope in [-1, 1]")
    _add_band_flags(p)
    p.add_argument("--orders", default="8:24:2", metavar="N0:N1[:STEP]",
                   help="inclusive order range (default 8:24:2)")
    p.add_argument("--skips", default="0:3", metavar="K0:K1[:STEP]",
                   help="inclusive skip range (default 0:3)")
    p.add_argument("--points-per-interval", type=int, default=DEFAULT_POINTS_PER_INTERVAL,
                   help="grid points per pole interval (default 64)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FilterDesignError is a ValueError
        print(f"spectilt: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # A bug: name the exception and the innermost frame, on one line.
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        what = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        print(f"spectilt: internal error: {what} ({where})".replace("\n", " "), file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
