import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spectilt

from spectilt import (
    BandSpec,
    colored_noise,
    design_from_json,
    design_tilt,
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

    def test_degenerate_order_exits_2(self, capsys):
        code, _, err = run(capsys, "design", "--alpha", "0.3", "--order", "5", "--skip", "2")
        assert code == 2
        assert "interval" in err or "band" in err

    def test_alpha_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "design", "--alpha", "1.5")
        assert code == 2

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

    def test_malformed_design_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 0.5}')
        code, _, err = run(capsys, "bode", "--design", str(path))
        assert code == 2

    def test_too_coarse_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "-0.5", "-o", str(path))
        code, _, err = run(capsys, "bode", "--design", str(path),
                           "--points-per-interval", "4")
        assert code == 2


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

    def test_low_sample_rate_exits_2(self, tmp_path, capsys):
        dpath = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "-0.5", "--fmin", "100", "--fmax", "5000",
            "-o", str(dpath))
        code, _, err = run(capsys, "digitize", "--design", str(dpath), "--fs", "150")
        assert code == 2

    def test_improper_design_exits_2(self, tmp_path, capsys):
        dpath = tmp_path / "d.json"
        run(capsys, "design", "--alpha", "0.5", "--integer-part", "1", "-o", str(dpath))
        code, _, err = run(capsys, "digitize", "--design", str(dpath), "--fs", "48000")
        assert code == 2


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
    @pytest.mark.parametrize("mangle", [
        lambda obj: obj["sections"][3].pop("a1"),
        lambda obj: obj.update(sections=5),
        lambda obj: obj["sections"].__setitem__(2, None),
        lambda obj: obj.update(sections=[]),
    ], ids=["missing-a1", "sections-5", "null-row", "no-sections"])
    def test_malformed_coefficients_exit_2_before_output(self, tmp_path, capsys, mangle):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        obj = json.loads(cpath.read_text())
        mangle(obj)
        cpath.write_text(json.dumps(obj))
        xin = tmp_path / "in.raw"
        np.ones(16).astype("<f8").tofile(xin)
        xout = tmp_path / "out.raw"
        code, out, err = run(capsys, "apply", "--coeffs", str(cpath), "-i", str(xin),
                             "-o", str(xout))
        assert code == 2
        assert out == ""
        assert "internal error" not in err
        assert not xout.exists()

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

    def test_nan_input_exits_2(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        x = np.ones(128)
        x[64] = np.nan
        xin = tmp_path / "in.raw"
        x.astype("<f8").tofile(xin)
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath),
                           "-i", str(xin), "-o", str(tmp_path / "out.raw"))
        assert code == 2

    def test_ragged_input_exits_2(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        xin = tmp_path / "in.raw"
        xin.write_bytes(b"\x00" * 12)  # 1.5 samples
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath),
                           "-i", str(xin), "-o", str(tmp_path / "o.raw"))
        assert code == 2

    def test_sweep_requires_design(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath),
                           "--alpha-sweep=-1:1:0.1",
                           "-i", "/dev/null", "-o", str(tmp_path / "o.raw"))
        assert code == 2

    def test_both_sources_rejected(self, tmp_path, capsys):
        dpath, cpath = self._design_and_coeffs(tmp_path, capsys)
        code, _, _ = run(capsys, "apply", "--coeffs", str(cpath), "--design", str(dpath),
                         "--fs", "48000", "-i", "/dev/null", "-o", str(tmp_path / "o.raw"))
        assert code == 2

    @pytest.mark.parametrize("sweep", ["-0.5:2:0.5", "-1.5:0:0.5", "nan:0:0.5", "0:1:nan"])
    def test_bad_sweep_exits_2_before_output(self, tmp_path, capsys, sweep):
        dpath, _ = self._design_and_coeffs(tmp_path, capsys, alpha="-0.5")
        xin = tmp_path / "in.raw"
        xout = tmp_path / "out.raw"
        # -0.5:2:0.5 reaches alpha = 1 after 14 400 samples; the stream is longer.
        np.random.default_rng(2).standard_normal(20000).astype("<f8").tofile(xin)
        code, _, err = run(capsys, "apply", "--design", str(dpath), "--fs", "48000",
                           f"--alpha-sweep={sweep}", "-i", str(xin), "-o", str(xout))
        assert code == 2
        assert "spectilt:" in err
        assert not xout.exists()

    def test_partial_sample_file_exits_2_before_output(self, tmp_path, capsys):
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        xin = tmp_path / "in.raw"
        xout = tmp_path / "out.raw"
        # More than one 64 Ki-sample read, ending in three stray bytes.
        xin.write_bytes(np.ones(70000).astype("<f8").tobytes() + b"\x00" * 3)
        code, _, err = run(capsys, "apply", "--coeffs", str(cpath),
                           "-i", str(xin), "-o", str(xout))
        assert code == 2
        assert "partial sample" in err
        assert not xout.exists()

    @pytest.mark.parametrize("source", ["coeffs", "design"])
    def test_late_nan_file_exits_2_before_output(self, tmp_path, capsys, source):
        dpath, cpath = self._design_and_coeffs(tmp_path, capsys)
        xin = tmp_path / "in.raw"
        xout = tmp_path / "out.raw"
        # The bad sample lies past the first 64 Ki-sample read.
        x = np.ones(70000)
        x[66000] = np.nan
        x.astype("<f8").tofile(xin)
        flags = (["--coeffs", str(cpath)] if source == "coeffs"
                 else ["--design", str(dpath), "--fs", "48000"])
        code, out, err = run(capsys, "apply", *flags, "-i", str(xin), "-o", str(xout))
        assert code == 2
        assert out == ""
        assert "internal error" not in err
        assert not xout.exists()

    def test_nan_in_pipe_exits_2(self, tmp_path, capsys, monkeypatch):
        # A pipe cannot be scanned ahead, so each block is checked as it streams.
        _, cpath = self._design_and_coeffs(tmp_path, capsys)
        x = np.ones(70000)
        x[66000] = np.nan
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(x.astype("<f8").tobytes())))
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
        np.ones(70000).astype("<f8").tofile(xin)
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
        raw = np.ones(1000).astype("<f8").tobytes() + b"\x00" * 5
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

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_exits_2_with_no_output(self, tmp_path, capsys, samples):
        path = tmp_path / "n.raw"
        code, out, err = run(capsys, "noise", "--samples", samples, "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.count("spectilt:") == 1 and err.startswith("spectilt:")
        assert not path.exists()


class TestInfiniteSampleRate:
    @pytest.mark.parametrize("command", ["digitize", "apply", "noise"])
    def test_exits_2_with_no_output(self, tmp_path, capsys, command):
        dpath = tmp_path / "d.json"
        xin = tmp_path / "in.raw"
        xout = tmp_path / "out.raw"
        run(capsys, "design", "--alpha", "-0.5", "-o", str(dpath))
        np.zeros(64).astype("<f8").tofile(xin)
        argv = {
            "digitize": ["digitize", "--design", str(dpath)],
            "apply": ["apply", "--design", str(dpath), "-i", str(xin), "-o", str(xout)],
            "noise": ["noise", "--samples", "64", "-o", str(xout)],
        }[command]
        code, out, err = run(capsys, *argv, "--fs", "inf")
        assert code == 2
        assert "sample rate must be finite" in err
        assert out == ""
        assert not xout.exists()


class TestSweepCommand:
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

    def test_invalid_combo_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--alpha", "-0.5",
                           "--orders", "5:7", "--skips", "2:2")
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "2"], "alpha must lie in [-1, 1]"),
        (["--fmin", "20", "--fmax", "20"], "need 0 < f_min < f_max"),
        (["--points-per-interval", "4"], "points_per_interval must be at least 8"),
        (["--points-per-interval", "0"], "points_per_interval must be at least 8"),
    ], ids=["alpha-2", "empty-band", "points-4", "points-0"])
    def test_bad_input_exits_2_before_header(self, capsys, flags, message):
        code, out, err = run(capsys, "sweep", "--alpha", "-0.5", "--orders", "8:10:2",
                             "--skips", "0:1", *flags)
        assert code == 2
        assert message in err
        assert out == ""

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--alpha", "-0.5", "--orders", "oops:4")
        assert code == 2


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

    @pytest.mark.parametrize(
        "command", ["design", "bode", "digitize", "apply", "noise", "sweep"]
    )
    def test_help_renders(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out


NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


class TestLazyScipy:
    """Only apply and noise stream samples; nothing else may load scipy, and
    neither loads scipy.signal or scipy.special."""

    @staticmethod
    def _python(code, cwd):
        src = os.path.dirname(os.path.dirname(os.path.abspath(spectilt.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True)

    def test_package_import_loads_no_scipy(self, tmp_path):
        proc = self._python("import sys, spectilt\n" + NO_SCIPY, tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_design_bode_digitize_sweep_version_load_no_scipy(self, tmp_path):
        argvs = [
            ["design", "--alpha", "-0.5", "-o", "d.json"],
            ["bode", "--design", "d.json", "--points-per-interval", "8"],
            ["digitize", "--design", "d.json", "--fs", "48000", "-o", "c.json"],
            ["sweep", "--alpha", "-0.5", "--orders", "8:10:2", "--skips", "0:1",
             "--points-per-interval", "8"],
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
