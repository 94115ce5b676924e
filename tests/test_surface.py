import spectilt

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
