import dataclasses

import numpy as np

import spectilt
from spectilt import runtime

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(spectilt.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(spectilt, name) is not None


def public_attributes(cls):
    return sorted(name for name in dir(cls) if not name.startswith("_"))


def test_stream_surface_is_pinned():
    assert public_attributes(spectilt.StreamingFilter) == [
        "denominators", "for_design", "gain", "process", "set_alpha"]
    context = spectilt.ModulationContext
    assert [field.name for field in dataclasses.fields(context)] == [
        "zero_anchors", "ratio", "c", "fs_hz", "section_dens", "edges"]
    assert public_attributes(context) == ["rebuild"]


def test_for_design_builds_no_paired_rows(monkeypatch):
    design = spectilt.design_tilt(-0.5)
    x = np.random.default_rng(0).standard_normal(256)
    expected = spectilt.StreamingFilter.for_design(design, 48000.0)
    expected.set_alpha(0.25)

    def refuse(sos):
        raise AssertionError("for_design paired its rows")

    monkeypatch.setattr(runtime, "_paired_rows", refuse)
    filt = spectilt.StreamingFilter.for_design(design, 48000.0)
    filt.set_alpha(0.25)
    assert np.array_equal(filt.process(x), expected.process(x))
