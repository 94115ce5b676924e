import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spectilt

from spectilt import (
    BandSpec,
    coefficients_to_json,
    colored_noise,
    design_from_json,
    design_tilt,
    design_to_json,
    digitize_design,
    load_coefficients,
    load_design,
    pink_noise,
    slope_report,
)
from spectilt.bode import CSV_HEADER
from spectilt.cli import STREAM_CHUNK, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _raw(n: int, nan_at: int | None = None, tail: bytes = b"") -> bytes:
    """n ones as raw float64, with an optional NaN and stray tail bytes."""
    x = np.ones(n)
    if nan_at is not None:
        x[nan_at] = np.nan
    return x.astype("<f8").tobytes() + tail


APPLY = "apply --coeffs {c} -i {x} -o {y}"
SWEPT = "apply --design {d} --fs 48000 -i {x} -o {y} --alpha-sweep="
SECTION = "must be an object with b0, b1 and a1"
PARTIAL = "which ends in a partial sample"
NAN = "input contains NaN or Inf"
INF_FS = "sample rate must be finite"
POINTS = "points_per_interval must be at least 8"
GAIN = "gain must be positive and finite"
WIDE = "design --alpha -0.5 --order 3 --skip 0 --fmin 1 --fmax "
LONG = _raw(70000)  # past one 64 Ki-sample read, and past alpha = 1 on -0.5:2:0.5
LATE_NAN = _raw(70000, nan_at=66000)
GRID = "sweep --alpha -0.5 --orders 8:10:2 --skips 0:1"
BAD_SWEEPS = ["-0.5:2:0.5", "-1.5:0:0.5", "nan:0:0.5", "0:1:nan", "-0.5:0.5:inf"]
# design --alpha 0 --order 2 --skip 0 --fmin 1e96 --fmax 1e106 --integer-part -3:
# its center gain fits a float, but at 3e106 Hz its louder edge's does not.
HUGE_BAND = design_to_json(design_tilt(0.0, order=2, skip=0, f_min_hz=1e96, f_max_hz=1e106,
                                       integer_part=-3)).encode()
# The same band at slope -0.5: its low edge's gain fits at 3e106 Hz, but the
# high edge's overflows from slope 0 up (e^739.29 at 0, e^739.59 at 1).
HUGE_TILT = design_tilt(-0.5, order=2, skip=0, f_min_hz=1e96, f_max_hz=1e106, integer_part=-3)
HUGE_SWEPT = "apply --design {d} --fs 3e106 -i {x} -o {y} --alpha-sweep="

# Each row is an argv that must exit 2 with one "spectilt:" line holding the
# message, no stdout bytes and no output file.  In argv, {d} is the given
# design (the stock one if None), {c} the stock design's 48 kHz coefficients
# after the edit, {x} a file holding the given bytes (16 ones as samples if
# None) and {y} the output path.
EXIT_2 = {
    "missing-a1": (APPLY, "sections[3] " + SECTION, None, lambda c: c["sections"][3].pop("a1")),
    "sections-5": (APPLY, "sections must be a list", None, lambda c: c.update(sections=5)),
    "null-row": (APPLY, "sections[2] " + SECTION, None,
                 lambda c: c["sections"].__setitem__(2, None)),
    "no-sections": (APPLY, "at least one section", None, lambda c: c.update(sections=[])),
    "gain=0": (APPLY, GAIN, None, lambda c: c.update(gain=0.0)),
    "gain=-1": (APPLY, GAIN, None, lambda c: c.update(gain=-1.0)),
    "nan-input": (APPLY, NAN, _raw(128, nan_at=64)),
    "ragged-input": (APPLY, "12 bytes, " + PARTIAL, b"\x00" * 12),
    "partial-file": (APPLY, "560003 bytes, " + PARTIAL, LONG + b"\x00" * 3),
    # The scan meets the NaN in its first read, before the partial tail.
    "nan-then-partial": (APPLY, NAN, _raw(70000, nan_at=64, tail=b"\x00" * 3)),
    "late-nan-coeffs": (APPLY, NAN, LATE_NAN),
    "late-nan-design": ("apply --design {d} --fs 48000 -i {x} -o {y}", NAN, LATE_NAN),
    "both-sources": (APPLY + " --design {d} --fs 48000", "exactly one of"),
    # The file holds 48 kHz coefficients.
    "coeffs-fs-conflict": (APPLY + " --fs 44100", "--fs 44100.0 Hz differs from the "
                           "coefficient file's sample rate, 48000.0 Hz"),
    "design-without-fs": ("apply --design {d} -i {x} -o {y}", "--design needs --fs"),
    "sweep-without-design": (APPLY + " --alpha-sweep=-1:1:0.1", "needs --design"),
    **{f"sweep={sweep}": (SWEPT + sweep, message, LONG) for sweep, message in zip(
        BAD_SWEEPS, ["[-1, 1], got 2.0", "[-1, 1], got -1.5", "[-1, 1], got nan",
                     "duration must be positive", "duration must be positive and finite"])},
    "sweep=0:1": (SWEPT + "0:1", "must look like a0:a1:seconds"),
    # The filter is built before any input is read, so the coefficient file
    # stands in for the samples.
    "edge-gain-overflow": ("apply --design {x} --fs 3e106 -i {c} -o {y}",
                           "levels the louder band edge at unity, e^739.29, overflows float64",
                           HUGE_BAND),
    # The sweep crosses slope 0 in its second chunk; its end, slope 1, needs
    # the largest gain.
    "sweep-gain-overflow": (HUGE_SWEPT + "-0.5:1:6.8e-102", "e^739.59, overflows float64",
                            LONG, None, HUGE_TILT),
    # Only the first slope's gain overflows, not the design slope's.
    "sweep-start-gain-overflow": (HUGE_SWEPT + "0:-0.5:1", "e^739.29, overflows float64",
                                  LONG, None, HUGE_TILT),
    "samples=0": ("noise --samples 0 -o {y}", "need at least one sample, got 0"),
    "samples=-5": ("noise --samples -5 -o {y}", "need at least one sample, got -5"),
    "digitize-fs=inf": ("digitize --design {d} -o {y} --fs inf", INF_FS),
    "apply-fs=inf": ("apply --design {d} -i {x} -o {y} --fs inf", INF_FS),
    "noise-fs=inf": ("noise --samples 64 -o {y} --fs inf", INF_FS),
    # Not clamped below fs/2 without a word.
    "noise-fmax=30000": ("noise --samples 64 -o {y} --fs 48000 --fmax 30000",
                         "band edge f_max=30000.0 Hz is not below fs/2=24000.0 Hz"),
    # Overflows that must exit 2 without a numpy RuntimeWarning.
    "ladder-overflow": (WIDE + "1e308 -o {y}", "reaches 10^462.0 Hz"),
    "fmax=1e200": (WIDE + "1e200 -o {y}", "reaches 10^300.0 Hz"),
    "fs=1e308": ("digitize --design {d} --fs 1e308 -o {y}", "bilinear constant overflows"),
    "fs=1e200": ("digitize --design {d} --fs 1e200 -o {y}",
                 "sample rate 1e+200 Hz is too high to resolve the 4.06184 Hz break"),
    "order-5-skip-2": ("design --alpha 0.3 --order 5 --skip 2", "no interval left for the band"),
    "alpha=1.5": ("design --alpha 1.5", "alpha must lie in [-1, 1]"),
    # f_min*f_max underflows to 0, so the band has no center to level at.
    "band-underflow": ("design --alpha -0.5 --order 4 --skip 1 --fmin 1e-200 --fmax 1e-180",
                       "band too low: at its center, 1e-190 Hz"),
    # Here the center's square would not underflow, only the product.
    "center-underflow": ("design --alpha -0.5 --order 4 --skip 0 --fmin 1.5e-162 "
                         "--fmax 1.6e-162", "band too low: at its center, 1.55e-162 Hz"),
    # Three integer-part poles far below a high band: the center's leveling
    # gain passes the float range.
    "gain-overflow": ("design --alpha 0 --order 2 --skip 0 --fmin 2.19e101 --fmax 2.96e106 "
                      "--integer-part -3", "e^723.27, overflows float64"),
    # Rejected before the ladder is allocated: this order would need 72.8 TiB.
    "order=1e13": ("design --alpha -0.5 --order 10000000000000",
                   "order must be <= 10000, got n=10000000000000"),
    "bode-points=4": ("bode --design {d} --points-per-interval 4", POINTS),
    # Rejected before the grid is allocated: numpy would need 15.3 TiB.
    "bode-points=1e11": ("bode --design {d} --points-per-interval 100000000000",
                         "holds 2100000000001 points, past the 1048576 allowed"),
    "bode-malformed": ("bode --design {x}", "missing fields: integer_part", b'{"alpha": 0.5}'),
    "digitize-fs=150": ("digitize --design {x} --fs 150", "band center 707.1", design_to_json(
        design_tilt(-0.5, f_min_hz=100.0, f_max_hz=5000.0)).encode()),
    # tan(pi*f1/fs) underflows to 0 while f1 < fs/2 still holds.
    "fs-tangent-underflow": ("digitize --design {x} --fs 9.24e300 -o {y}",
                             "sample rate 9.24e+300 Hz is too large", design_to_json(design_tilt(
                                 0.0, order=24, skip=11, f_min_hz=0.0139, f_max_hz=207.6)).encode()),
    "digitize-improper": ("digitize --design {x} --fs 48000", "more zeros than poles",
                          design_to_json(design_tilt(0.5, integer_part=1)).encode()),
    "orders=5:7-skips=2:2": ("sweep --alpha -0.5 --orders 5:7 --skips 2:2",
                             "no interval left for the band"),
    "orders=oops:4": ("sweep --alpha -0.5 --orders oops:4", "invalid literal for int()"),
    # sweep grades every cell before it writes its header.
    "sweep-alpha=2": (GRID + " --alpha 2", "alpha must lie in [-1, 1]"),
    "sweep-fmin=fmax": (GRID + " --fmin 20 --fmax 20", "need 0 < f_min < f_max"),
    "orders=1:2:3:4": ("sweep --alpha -0.5 --orders 1:2:3:4", "must look like start:stop[:step]"),
    "orders=4:2": ("sweep --alpha -0.5 --orders 4:2", "'4:2' is empty or descending"),
    "orders=8:20000": ("sweep --alpha -0.5 --orders 8:20000",
                       "order must be <= 10000, got n=20000"),
}


STOCK = design_tilt(-0.5)
STOCK_COEFFS = coefficients_to_json(digitize_design(STOCK, 48000.0)[0])


def check_exit_2(tmp_path, capsys, row: str) -> None:
    """Run one EXIT_2 row, with warnings raised as errors, and check its
    whole exit-2 contract."""
    argv, message, samples, edit, design = (EXIT_2[row] + (None, None, None))[:5]
    files = {"d": tmp_path / "d.json", "c": tmp_path / "c.json",
             "x": tmp_path / "in.raw", "y": tmp_path / "out.raw"}
    files["d"].write_text(design_to_json(STOCK if design is None else design))
    coeffs = json.loads(STOCK_COEFFS)
    if edit is not None:
        edit(coeffs)
    files["c"].write_text(json.dumps(coeffs))
    files["x"].write_bytes(_raw(16) if samples is None else samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *(arg.format(**files) for arg in argv.split()))
    assert code == 2
    assert err.startswith("spectilt: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err
    assert out == ""
    assert not files["y"].exists()


def contract(*rows: str, ids=None):
    """A test method that runs ``rows`` of EXIT_2 through check_exit_2,
    parametrized by row when there are several.  Binding rows to a named
    test in each command's class keeps every test id stable."""
    if len(rows) == 1:
        return lambda self, tmp_path, capsys: check_exit_2(tmp_path, capsys, rows[0])

    @pytest.mark.parametrize("row", rows, ids=ids)
    def test(self, tmp_path, capsys, row):
        check_exit_2(tmp_path, capsys, row)

    return test


class TestExit2Contract:
    """The EXIT_2 rows that no command's class binds."""

    test_exits_2_with_nothing_written = contract(
        "nan-then-partial", "design-without-fs", "sweep=0:1", "ladder-overflow", "fmax=1e200",
        "fs=1e308", "fs=1e200", "orders=1:2:3:4", "orders=4:2")


class TestDesignCommand:
    def test_writes_design_file(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        code, out, _ = run(capsys, "design", "--alpha", "-0.5", "-o", str(path))
        assert code == 0
        design = load_design(path)
        assert design.placement.r == pytest.approx(1000.0 ** (1.0 / 13.0), rel=1e-12)
        assert design.n == 20 and design.k_skip == 3

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "design", "--alpha", "0.25")
        assert code == 0
        design = design_from_json(out)
        assert design.spec.alpha == 0.25

    def test_zero_slope_zeros_equal_poles(self, capsys):
        code, out, _ = run(capsys, "design", "--alpha", "0")
        obj = json.loads(out)
        assert obj["poles_rad_s"] == obj["zeros_rad_s"]

    test_degenerate_order_exits_2 = contract("order-5-skip-2")
    test_alpha_out_of_range_exits_2 = contract("alpha=1.5")
    test_order_past_bound_exits_2 = contract("order=1e13")
    test_underflowing_band_exits_2 = contract("band-underflow")
    test_underflowing_center_exits_2 = contract("center-underflow")
    test_overflowing_gain_exits_2 = contract("gain-overflow")

    def test_round_trip_is_exact(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "-0.5", "-o", str(path))
        reference = design_tilt(-0.5)
        loaded = load_design(path)
        assert np.array_equal(loaded.filt.poles, reference.filt.poles)
        assert np.array_equal(loaded.filt.zeros, reference.filt.zeros)
        assert loaded.filt.gain == reference.filt.gain


class TestBodeCommand:
    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "-0.5", "-o", str(path))
        code, out, _ = run(capsys, "bode", "--design", str(path))
        assert code == 0
        lines = out.splitlines()
        assert any("max_abs_slope_error_in_band=" in ln for ln in lines if ln.startswith("#"))
        assert any("good_band_ln_rad_s=" in ln for ln in lines if ln.startswith("#"))
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == CSV_HEADER
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 21 * 64 + 1

    def test_metadata_matches_report(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "-0.5", "-o", str(path))
        code, out, _ = run(capsys, "bode", "--design", str(path), "--points-per-interval", "16")
        design = load_design(path)
        rep = slope_report(design.filt, design.spec, design.placement, design.n,
                           design.k_skip, points_per_interval=16)
        meta = next(ln for ln in out.splitlines() if "max_abs_slope_error_in_band" in ln)
        assert float(meta.split("=")[1]) == rep.max_abs_error_in_band

    def test_metadata_lines_pinned(self, tmp_path, capsys):
        """One key=repr(value) line per scalar design-file field, in file
        order, then the good band and the max error."""
        path = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "0.3", "--integer-part", "-1", "-o", str(path))
        code, out, _ = run(capsys, "bode", "--design", str(path), "--points-per-interval", "8")
        assert code == 0
        design = design_tilt(0.3, integer_part=-1)
        rep = slope_report(design.filt, design.spec, design.placement, 20, 3,
                           points_per_interval=8)
        lo, hi = rep.good_band
        assert [ln for ln in out.splitlines() if ln.startswith("#")] == [
            "# alpha=0.3", "# integer_part=-1", "# n=20", "# k_skip=3",
            "# f_min_hz=20.0", "# f_max_hz=20000.0",
            f"# f1_hz={design.placement.f1_hz!r}", f"# r={design.placement.r!r}",
            f"# gain={design.filt.gain!r}",
            f"# good_band_ln_rad_s=[{lo!r}, {hi!r}]",
            f"# max_abs_slope_error_in_band={rep.max_abs_error_in_band!r}",
        ]

    test_malformed_design_exits_2 = contract("bode-malformed")

    test_too_coarse_grid_exits_2 = contract("bode-points=4")

    test_too_large_grid_exits_2 = contract("bode-points=1e11")


class TestDigitizeCommand:
    def test_writes_coefficients_and_reports_truncation(self, tmp_path, capsys):
        dpath = tmp_path / "d.json"
        cpath = tmp_path / "c.json"
        run(capsys, "design", "--alpha", "-0.5", "-o", str(dpath))
        code, _, err = run(capsys, "digitize", "--design", str(dpath), "--fs", "48000",
                           "-o", str(cpath))
        assert code == 0
        assert "truncated" in err
        dfilt = load_coefficients(cpath)
        assert dfilt.sample_rate_hz == 48000.0
        assert len(dfilt.sos) == 16

    test_low_sample_rate_exits_2 = contract("digitize-fs=150")
    test_improper_design_exits_2 = contract("digitize-improper")
    test_underflowing_tangent_exits_2 = contract("fs-tangent-underflow")


def _edited_design(tmp_path, capsys, edit):
    """A stock design file with one stored field edited."""
    path = tmp_path / "edited.json"
    _, out, _ = run(capsys, "design", "--alpha", "-0.5")
    obj = json.loads(out)
    edit(obj)
    path.write_text(json.dumps(obj))
    return path


INCONSISTENT_DESIGNS = {
    "n-25": lambda obj: obj.update(n=25),
    "zeros-cut-to-5": lambda obj: obj.update(zeros_rad_s=obj["zeros_rad_s"][:5]),
    "r-3": lambda obj: obj.update(r=3.0),
}


class TestInconsistentDesignFile:
    @pytest.mark.parametrize("edit", sorted(INCONSISTENT_DESIGNS))
    @pytest.mark.parametrize("command", [["bode"], ["digitize", "--fs", "48000"]],
                             ids=["bode", "digitize"])
    def test_exits_2_with_empty_stdout(self, tmp_path, capsys, command, edit):
        path = _edited_design(tmp_path, capsys, INCONSISTENT_DESIGNS[edit])
        code, out, err = run(capsys, command[0], "--design", str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert "re-derived" in err or "do not fit" in err


class TestApplyCommand:
    test_malformed_coefficients_exit_2_before_output = contract(
        "missing-a1", "sections-5", "null-row", "no-sections", "gain=0", "gain=-1")
    test_nan_input_exits_2 = contract("nan-input")
    test_ragged_input_exits_2 = contract("ragged-input")
    test_sweep_requires_design = contract("sweep-without-design")
    test_both_sources_rejected = contract("both-sources")
    test_conflicting_rate_rejected = contract("coeffs-fs-conflict")
    test_bad_sweep_exits_2_before_output = contract(
        *(f"sweep={s}" for s in BAD_SWEEPS), ids=BAD_SWEEPS)
    test_partial_sample_file_exits_2_before_output = contract("partial-file")
    test_edge_gain_overflow_exits_2_before_output = contract("edge-gain-overflow")
    test_sweep_gain_overflow_exits_2_before_output = contract(
        "sweep-gain-overflow", "sweep-start-gain-overflow", ids=["crosses-0", "start"])
    test_late_nan_file_exits_2_before_output = contract(
        "late-nan-coeffs", "late-nan-design", ids=["coeffs", "design"])

    def _design_and_coeffs(self, tmp_path, capsys, alpha="0"):
        dpath = tmp_path / "d.json"
        cpath = tmp_path / "c.json"
        run(capsys, "design", "--alpha", alpha, "-o", str(dpath))
        run(capsys, "digitize", "--design", str(dpath), "--fs", "48000", "-o", str(cpath))
        return dpath, cpath

    def test_identity_filter_passes_samples(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys, alpha="0")
        x = np.random.default_rng(0).standard_normal(2048)
        xin = tmp_path / "in.raw"
        xout = tmp_path / "out.raw"
        x.astype("<f8").tofile(xin)
        code, _, _ = run(capsys, "apply", "--coeffs", str(cpath),
                         "-i", str(xin), "-o", str(xout))
        assert code == 0
        y = np.fromfile(xout, dtype="<f8")
        assert np.max(np.abs(y - x)) < 1e-12

    def test_conflicting_rate_rejected_before_input_opened(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath), "--fs", "44100",
                           "-i", str(tmp_path / "missing.raw"), "-o", str(tmp_path / "out.raw"))
        assert code == 2
        assert "differs from the coefficient file's sample rate" in err

    def test_matching_rate_is_accepted(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        xin = tmp_path / "in.raw"
        xin.write_bytes(LONG)
        outputs = []
        for extra in ([], ["--fs", "48000"]):
            xout = tmp_path / f"out{len(extra)}.raw"
            code, _, _ = run(capsys, "apply", "--coeffs", str(cpath), *extra,
                             "-i", str(xin), "-o", str(xout))
            assert code == 0
            outputs.append(xout.read_bytes())
        assert outputs[0] == outputs[1]

    def test_nan_in_pipe_exits_2(self, tmp_path, capsys, monkeypatch):
        # A pipe cannot be scanned ahead, so each block is checked as it streams.
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(LATE_NAN)))
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath),
                           "-o", str(tmp_path / "out.raw"))
        assert code == 2
        assert "NaN or Inf" in err and "internal error" not in err

    def test_nan_appended_after_file_scan_exits_2(self, tmp_path, capsys, monkeypatch):
        # A file still being written can grow after the whole-file scan; the
        # samples read past the scan are still checked block by block.
        import spectilt.cli

        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        xin = tmp_path / "in.raw"
        xin.write_bytes(LONG)
        scan = spectilt.cli._check_input_file

        def scan_then_append(fh_in):
            scanned = scan(fh_in)
            with open(xin, "ab") as fh:
                fh.write(np.array([np.nan]).astype("<f8").tobytes())
            return scanned

        monkeypatch.setattr(spectilt.cli, "_check_input_file", scan_then_append)
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath), "-i", str(xin),
                           "-o", str(tmp_path / "out.raw"))
        assert code == 2
        assert "NaN or Inf" in err and "internal error" not in err

    def test_partial_sample_pipe_exits_2_at_tail(self, tmp_path, capsys, monkeypatch):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        raw = _raw(1000, tail=b"\x00" * 5)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath),
                           "-o", str(tmp_path / "out.raw"))
        assert code == 2
        assert "8005 bytes" in err

    def test_sweep_runs_finite(self, tmp_path, capsys):
        dpath, _ = self._design_and_coeffs(tmp_path, capsys, alpha="-0.5")
        x = np.random.default_rng(1).standard_normal(4800)
        xin = tmp_path / "in.raw"
        xout = tmp_path / "out.raw"
        x.astype("<f8").tofile(xin)
        code, _, _ = run(capsys, "apply", "--design", str(dpath), "--fs", "48000",
                         "--alpha-sweep=-1:1:0.05", "-i", str(xin), "-o", str(xout))
        assert code == 0
        y = np.fromfile(xout, dtype="<f8")
        assert len(y) == len(x)
        assert np.all(np.isfinite(y))


def _swept_reference(design, fs: float, x: np.ndarray, sweep: str) -> bytes:
    """apply --alpha-sweep's output bytes as a plain loop: set_alpha at the
    start of each 64-sample control block, then process that block."""
    from spectilt.cli import _parse_sweep
    from spectilt.runtime import StreamingFilter

    schedule = _parse_sweep(sweep)
    filt = StreamingFilter.for_design(design, fs)
    out = []
    for pos in range(0, len(x), 64):
        filt.set_alpha(schedule(pos / fs))
        out.append(filt.process(x[pos:pos + 64]))
    return np.concatenate(out).astype("<f8").tobytes()


# name -> (design_tilt keywords, sample rate, samples, sweep)
SWEPT_CASES = {
    # Two whole 64 Ki-sample reads and a tail that ends mid control block.
    "stock": ({"alpha": -0.5}, 48000.0, 150_001, "-0.9:0.8:4"),
    # The slope reaches -1 at 91 200 samples, in the second read, and holds.
    "ends-mid-stream": ({"alpha": -0.5}, 48000.0, 150_001, "1:-1:1.9"),
    "integer-part-1-44k1": ({"alpha": -0.3, "integer_part": -1}, 44100.0, 150_001, "-1:1:2"),
    # 2000 sections: a read's 1024 control blocks take many rebuild groups.
    "order-2000": ({"alpha": -0.5, "order": 2000}, 48000.0, 70_000, "-1:1:1"),
}


class TestSweptApplyBytes:
    """apply --alpha-sweep writes exactly the bytes of set_alpha before
    every 64-sample block, however it reads and rebuilds."""

    def test_reads_hold_whole_control_blocks(self):
        from spectilt.cli import CONTROL_BLOCK

        assert CONTROL_BLOCK == 64 and STREAM_CHUNK % CONTROL_BLOCK == 0

    @pytest.mark.parametrize("case", sorted(SWEPT_CASES))
    def test_file_bytes_equal_per_block_loop(self, tmp_path, capsys, case):
        kwargs, fs, n, sweep = SWEPT_CASES[case]
        design = design_tilt(**kwargs)
        x = np.random.default_rng(n).standard_normal(n)
        dpath, xin, xout = tmp_path / "d.json", tmp_path / "in.raw", tmp_path / "out.raw"
        dpath.write_text(design_to_json(design))
        x.astype("<f8").tofile(xin)
        code, _, err = run(capsys, "apply", "--design", str(dpath), "--fs", repr(fs),
                           f"--alpha-sweep={sweep}", "-i", str(xin), "-o", str(xout))
        assert code == 0, err
        assert xout.read_bytes() == _swept_reference(design, fs, x, sweep)

    def test_stdin_bytes_equal_per_block_loop(self, tmp_path, capsys, monkeypatch):
        kwargs, fs, n, sweep = SWEPT_CASES["stock"]
        design = design_tilt(**kwargs)
        x = np.random.default_rng(n).standard_normal(n)
        dpath, xout = tmp_path / "d.json", tmp_path / "out.raw"
        dpath.write_text(design_to_json(design))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(x.astype("<f8").tobytes())))
        code, _, err = run(capsys, "apply", "--design", str(dpath), "--fs", repr(fs),
                           f"--alpha-sweep={sweep}", "-o", str(xout))
        assert code == 0, err
        assert xout.read_bytes() == _swept_reference(design, fs, x, sweep)


def _per_chunk_reference(filt, chunks) -> bytes:
    """The streamed bytes as a plain loop: process on each chunk in turn."""
    return np.concatenate([filt.process(x) for x in chunks]).astype("<f8").tobytes()


# Three whole 64 Ki-sample reads and a tail that ends mid-chunk.
CHUNKED = 3 * STREAM_CHUNK + 17


class TestStaticApplyBytes:
    """apply --coeffs writes exactly the bytes of process on each 64 Ki-sample
    chunk, however it holds the samples."""

    def _expected(self, x):
        from spectilt.runtime import StreamingFilter

        filt = StreamingFilter(digitize_design(STOCK, 48000.0)[0])
        return _per_chunk_reference(
            filt, (x[i:i + STREAM_CHUNK] for i in range(0, len(x), STREAM_CHUNK)))

    def test_file_bytes_equal_per_chunk_loop(self, tmp_path, capsys):
        x = np.random.default_rng(CHUNKED).standard_normal(CHUNKED)
        cpath, xin, xout = tmp_path / "c.json", tmp_path / "in.raw", tmp_path / "out.raw"
        cpath.write_text(STOCK_COEFFS)
        x.astype("<f8").tofile(xin)
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath), "-i", str(xin),
                           "-o", str(xout))
        assert code == 0, err
        assert xout.read_bytes() == self._expected(x)

    def test_stdin_bytes_equal_per_chunk_loop(self, tmp_path, capsys, monkeypatch):
        x = np.random.default_rng(CHUNKED).standard_normal(CHUNKED)
        cpath, xout = tmp_path / "c.json", tmp_path / "out.raw"
        cpath.write_text(STOCK_COEFFS)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(x.astype("<f8").tobytes())))
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath), "-o", str(xout))
        assert code == 0, err
        assert xout.read_bytes() == self._expected(x)


class TestNoiseCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.raw"
        b = tmp_path / "b.raw"
        for path in (a, b):
            code, _, _ = run(capsys, "noise", "--samples", "4096", "--seed", "9",
                             "-o", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library_pink(self, tmp_path, capsys):
        path = tmp_path / "n.raw"
        run(capsys, "noise", "--samples", "1024", "--seed", "21", "--fs", "48000",
            "-o", str(path))
        expected = pink_noise(seed=21, n_samples=1024, fs_hz=48000.0)
        assert np.array_equal(np.fromfile(path, dtype="<f8"), expected)

    def test_streamed_bytes_equal_one_library_call(self, tmp_path, capsys):
        # Three whole blocks and a partial tail.
        n = 3 * STREAM_CHUNK + 17
        path = tmp_path / "n.raw"
        code, _, _ = run(capsys, "noise", "--color", "-0.3", "--samples", str(n),
                         "--seed", "5", "--fs", "44100", "--fmin", "30", "-o", str(path))
        assert code == 0
        expected = colored_noise(-0.3, seed=5, n_samples=n, fs_hz=44100.0,
                                 band=BandSpec(30.0, 20000.0))
        assert path.read_bytes() == expected.astype("<f8").tobytes()

    def test_streamed_bytes_equal_per_chunk_loop(self, tmp_path, capsys):
        from spectilt.runtime import GaussianSource, StreamingFilter

        path = tmp_path / "n.raw"
        code, _, _ = run(capsys, "noise", "--color", "0.4", "--samples", str(CHUNKED),
                         "--seed", "12", "--fs", "96000", "-o", str(path))
        assert code == 0
        filt = StreamingFilter.for_design(design_tilt(0.4), 96000.0)
        source = GaussianSource(12)
        chunks = (source.block(min(STREAM_CHUNK, CHUNKED - i))
                  for i in range(0, CHUNKED, STREAM_CHUNK))
        assert path.read_bytes() == _per_chunk_reference(filt, chunks)

    test_no_samples_exits_2_with_no_output = contract("samples=0", "samples=-5", ids=["0", "-5"])
    test_band_edge_past_nyquist_exits_2_with_no_output = contract("noise-fmax=30000")


class TestInfiniteSampleRate:
    test_exits_2_with_no_output = contract(
        "digitize-fs=inf", "apply-fs=inf", "noise-fs=inf", ids=["digitize", "apply", "noise"])


class TestSweepCommand:
    def test_orders_past_max_order_exit_2_before_any_design(self, tmp_path, capsys,
                                                            monkeypatch):
        import spectilt.cli

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was solved before the ranges were checked")

        monkeypatch.setattr(spectilt.cli, "design_tilt", no_cell)
        monkeypatch.setattr(spectilt.cli, "slope_report", no_cell)
        check_exit_2(tmp_path, capsys, "orders=8:20000")

    def test_table_structure_and_order(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha", "-0.5",
                           "--orders", "10:14:2", "--skips", "0:1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,max_abs_slope_error"
        rows = [ln.split(",") for ln in lines[1:]]
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert len(keys) == 6

    def test_single_cell_echoes_report(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha", "-0.5",
                           "--orders", "20:20", "--skips", "3:3")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[2])
        design = design_tilt(-0.5)
        rep = slope_report(design.filt, design.spec, design.placement, 20, 3)
        assert value == rep.max_abs_error_in_band

    def test_skip_columns_dominate(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha", "-0.5",
                           "--orders", "10:24:2", "--skips", "0:3:3")
        table = {}
        for ln in out.splitlines()[1:]:
            n, k, e = ln.split(",")
            table[(int(n), int(k))] = float(e)
        for n in range(10, 25, 2):
            assert table[(n, 3)] <= table[(n, 0)]

    def test_error_falls_with_order_in_ripple_regime(self, capsys):
        # With the skirt fixed at 3 pairs, adding pairs shrinks the ripple
        # until the (fixed-pair) edge leakage takes over around N ~ 14 for a
        # three-decade band.
        code, out, _ = run(capsys, "sweep", "--alpha", "-0.5",
                           "--orders", "10:14:2", "--skips", "3:3")
        errors = [float(ln.split(",")[2]) for ln in out.splitlines()[1:]]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    test_invalid_combo_exits_2 = contract("orders=5:7-skips=2:2")

    test_bad_input_exits_2_before_header = contract(
        "sweep-alpha=2", "sweep-fmin=fmax", ids=["alpha-2", "empty-band"])

    test_empty_grid_exits_2 = contract("orders=oops:4")


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unexpected_failure_exits_1(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(spectilt.cli, "cmd_design", boom)
        code, _, err = run(capsys, "design", "--alpha", "-0.5")
        assert code == 1
        line = boom.__code__.co_firstlineno + 1
        assert err == f"spectilt: internal error: RuntimeError: boom (test_cli.py:{line} in boom)\n"

    @pytest.mark.parametrize("argv", [["noise", "--samples", "1000000"],
                                      ["apply", "--coeffs", "c.json", "-i", "in.raw"]],
                             ids=["noise", "apply"])
    def test_closed_stdout_ends_quietly(self, tmp_path, argv):
        (tmp_path / "c.json").write_text(STOCK_COEFFS)
        (tmp_path / "in.raw").write_bytes(_raw(1 << 18))
        proc = subprocess.Popen([sys.executable, "-m", "spectilt", *argv], cwd=tmp_path,
                                env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()  # the reader wants no more
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""

    @pytest.mark.parametrize(
        "command", ["design", "bode", "digitize", "apply", "noise", "sweep"]
    )
    def test_help_renders(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out


def _src_env() -> dict:
    """This environment with the package's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectilt.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


class TestLazyScipy:
    """Only apply and noise stream samples; nothing else may load scipy, and
    neither loads scipy.signal or scipy.special."""

    @staticmethod
    def _python(code, cwd):
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_src_env(),
                              capture_output=True, text=True)

    def test_package_import_loads_no_scipy(self, tmp_path):
        proc = self._python("import sys, spectilt\n" + NO_SCIPY, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_design_bode_digitize_sweep_version_load_no_scipy(self, tmp_path):
        argvs = [
            ["design", "--alpha", "-0.5", "-o", "d.json"],
            ["bode", "--design", "d.json", "--points-per-interval", "8"],
            ["digitize", "--design", "d.json", "--fs", "48000", "-o", "c.json"],
            ["sweep", "--alpha", "-0.5", "--orders", "8:10:2", "--skips", "0:1"],
        ]
        code = (
            "import sys\n"
            "from spectilt import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "try:\n"
            "    cli.main(['--version'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
        )
        proc = self._python(code + NO_SCIPY, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_streaming_names_load_on_first_use(self, tmp_path):
        proc = self._python(
            "import spectilt\n"
            "assert spectilt.StreamingFilter.__module__ == 'spectilt.runtime'\n"
            "from spectilt import *\n"
            "assert pink_noise is spectilt.runtime.pink_noise\n",
            tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_streaming_loads_no_scipy_signal(self, tmp_path):
        x = np.random.default_rng(4).standard_normal(1000)
        x.astype("<f8").tofile(tmp_path / "in.raw")
        argvs = [
            ["design", "--alpha", "-0.5", "-o", "d.json"],
            ["digitize", "--design", "d.json", "--fs", "48000", "-o", "c.json"],
            ["apply", "--coeffs", "c.json", "-i", "in.raw", "-o", "static.raw"],
            ["apply", "--design", "d.json", "--fs", "48000", "--alpha-sweep=-1:1:0.01",
             "-i", "in.raw", "-o", "swept.raw"],
        ]
        code = (
            "import sys\n"
            "import spectilt.runtime\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "from spectilt import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "assert 'scipy.special' not in sys.modules\n"
        )
        proc = self._python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "swept.raw").stat().st_size == 8000

    def test_noise_loads_no_scipy_signal_or_special(self, tmp_path):
        code = (
            "import sys\n"
            "from spectilt import cli\n"
            "assert cli.main(['noise', '--samples', '1000', '-o', 'n.raw']) == 0\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "assert 'scipy.special' not in sys.modules\n"
        )
        proc = self._python(code, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "n.raw").stat().st_size == 8000

    def test_later_scipy_signal_import_binds_the_kernel(self, tmp_path):
        proc = self._python(
            "import spectilt.runtime\n"
            "import scipy.signal\n"
            "assert scipy.signal._sosfilt._sosfilt is spectilt.runtime._cascade\n",
            tmp_path)
        assert proc.returncode == 0, proc.stderr
