"""Self-test of the benchmark: no check is vacuous.

    python3 perfbench/selftest.py        # from the checkout root, about a minute

Each workload runs once at a small size through the same worker, CLI
commands and checks as a real run.  Every check must pass on the program's
outputs, and each must then fail on a copy of those outputs perturbed just
enough to break the property it checks.  The benchmark's own digital slope
evaluator is also compared with a finite difference, and BENCHMARK.json is
compared with the metrics run.py reports.  Exit code 0 means all of this
held.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import numpy as np

import checks
import run

SMALL = {"static_samples": 1 << 18, "noise_samples": 1 << 18, "mod_samples": 1 << 14,
         "grid_cells": 12}


def edit_json(text: str, change) -> str:
    obj = json.loads(text)
    change(obj)
    return json.dumps(obj)


def scale_key(key, index, factor):
    def change(obj):
        obj[key][index] *= factor
    return change


def scale_all_breaks(obj):
    obj["poles_rad_s"] = [p * (1 + 1e-9) for p in obj["poles_rad_s"]]
    obj["zeros_rad_s"] = [z * (1 + 1e-9) for z in obj["zeros_rad_s"]]


def scale_section(index, key, factor):
    def change(obj):
        obj["sections"][index][key] *= factor
    return change


def pole_on_circle(obj):
    obj["sections"][0]["a1"] = -1.0


def set_field(key, value):
    def change(obj):
        obj[key] = value(obj[key])
    return change


def on_cell(field, change):
    """Perturb one text output of the first design cell."""
    def perturb(out):
        out["cells"][0][field] = edit_json(out["cells"][0][field], change)
    return perturb


def on_key(key, change):
    def perturb(out):
        out[key] = edit_json(out[key], change)
    return perturb


def bump_sample(index):
    def perturb(out):
        out["cells"][0]["slope_samples"][index][1] += 1e-6
    return perturb


def scale_report_max(out):
    out["cells"][0]["max_abs_error_in_band"] *= 1.01


def bump_bode_metadata(out):
    lines = out["cli_bode"].splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("# max_abs_slope_error_in_band="):
            value = float(line.split("=", 1)[1])
            lines[i] = f"# max_abs_slope_error_in_band={value * 1.001!r}\n"
    out["cli_bode"] = "".join(lines)


def bump_sweep_row(out):
    lines = out["cli_sweep"].splitlines(keepends=True)
    n, k, err = lines[1].strip().split(",")
    lines[1] = f"{n},{k},{float(err) * 1.1!r}\n"
    out["cli_sweep"] = "".join(lines)


def flip_cli_bit(out):
    raw = bytearray(out["cli_y"])
    raw[8 * 1000] ^= 1  # lowest mantissa bit of sample 1000
    out["cli_y"] = bytes(raw)


def bump_output(out):
    out["y"] = out["y"].copy()
    out["y"][1000] *= 1 + 1e-6


def white_noise(out):
    out["noise"] = np.random.default_rng(7).standard_normal(len(out["noise"]))


def nudge_denominator(out):
    dens = out["dens"].copy()
    dens[len(dens) // 2, 3] = np.nextafter(dens[len(dens) // 2, 3], 0.0)
    out["dens"] = dens


MIDDLE = 5
PERTURBATIONS = {
    "design-grade": [
        ("design.inputs_echoed", on_cell("design", set_field("alpha", lambda a: a + 1e-3))),
        ("design.ladder_geometric", on_cell("design", scale_key("poles_rad_s", MIDDLE, 1 + 1e-9))),
        ("design.ladder_geometric", on_key("cli_design", scale_key("poles_rad_s", MIDDLE, 1 + 1e-9))),
        ("design.breaks_at_band_edges", on_cell("design", scale_all_breaks)),
        ("design.zeros_slid", on_cell("design", scale_key("zeros_rad_s", MIDDLE, 1 + 1e-9))),
        ("design.unity_at_center", on_cell("design", set_field("gain", lambda g: g * (1 + 1e-6)))),
        ("report.slope_mpmath", bump_sample(1)),
        ("report.max_error", scale_report_max),
        ("coeffs.sample_rate", on_cell("coeffs", set_field("sample_rate_hz", lambda f: f + 1.0))),
        ("coeffs.digital_poles_inside", on_cell("coeffs", pole_on_circle)),
        ("coeffs.bilinear_identity", on_cell("coeffs", scale_section(3, "b0", 1 + 1e-6))),
        ("coeffs.bilinear_identity", on_key("cli_coeffs", scale_section(3, "b0", 1 + 1e-6))),
        ("cli.bode_csv", bump_bode_metadata),
        ("cli.sweep_csv", bump_sweep_row),
    ],
    "stream-static": [
        ("coeffs.sample_rate", on_key("coeffs", set_field("sample_rate_hz", lambda f: f + 1.0))),
        ("coeffs.digital_poles_inside", on_key("coeffs", pole_on_circle)),
        ("coeffs.bilinear_identity", on_key("coeffs", scale_section(3, "b0", 1 + 1e-6))),
        ("stream.reference_cascade", bump_output),
        ("stream.cli_bit_identical", flip_cli_bit),
        ("noise.psd_slope", white_noise),
    ],
    "stream-modulated": [
        ("stream.denominators_constant", nudge_denominator),
        ("stream.reference_recursion", bump_output),
        ("stream.cli_bit_identical", flip_cli_bit),
    ],
}


def small_outputs(root, workload):
    """Outputs of one small run: the warm-up pass, one warm pass and one cold round."""
    run_dir = os.path.join(root, ".perfbench", f"selftest-{os.getpid()}-{workload}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        plan = run.make_plan(root, run_dir, workload, seed=11, seconds=0.0, trace=False,
                             sizes=SMALL)
        plan.update(min_rounds=1)
        run.write_inputs(plan)
        measured = run.measure(plan)
        if measured["failed"]:
            raise run.BenchError(f"{measured['failed']} operations failed")
        return plan, run.collect_outputs(plan)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_slope_evaluator(out) -> bool:
    """The closed-form digital slope against a central difference of ln|H_d|."""
    c = checks.parse_coeffs(out["coeffs"])
    fs = c["sample_rate_hz"]
    f = np.geomspace(20.0, 20000.0, 64)
    h = 1e-5

    def ln_mag(freqs):
        return np.log(np.abs(checks.digital_response(c["b0"], c["b1"], c["a1"], c["gain"],
                                                     freqs, fs)))

    fd = (ln_mag(f * np.exp(h)) - ln_mag(f * np.exp(-h))) / (2 * h)
    dev = float(np.max(np.abs(fd - checks.digital_slope(c["b0"], c["b1"], c["a1"], f, fs))))
    print(f"selftest: digital slope evaluator vs finite difference: {dev:.2e}")
    return dev <= 1e-6


def check_manifest(root) -> bool:
    """BENCHMARK.json names exactly the metrics, with the units, that run.py reports."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ok = True
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in manifest[section]}
        if listed != units:
            print(f"selftest: BENCHMARK.json {section} differs from run.py: "
                  f"{sorted(set(listed.items()) ^ set(units.items()))}")
            ok = False
    return ok


def main() -> int:
    root = os.getcwd()
    ok = check_manifest(root)
    for workload, cases in PERTURBATIONS.items():
        plan, out = small_outputs(root, workload)
        clean = run.check_outputs(plan, out)
        for name, (passed, detail) in sorted(clean.items()):
            print(f"selftest: {workload}: clean {name}: {'ok' if passed else 'FAILED'} ({detail})")
            ok &= passed
        untested = set(clean) - {name for name, _ in cases}
        if untested:
            print(f"selftest: {workload}: no perturbation for {sorted(untested)}")
            ok = False
        for name, perturb in cases:
            bad = copy.deepcopy(out)
            perturb(bad)
            passed, detail = run.check_outputs(plan, bad)[name]
            print(f"selftest: {workload}: perturbed {name}: "
                  f"{'still passes (vacuous)' if passed else 'fails as it should'} ({detail})")
            ok &= not passed
        if workload == "stream-static":
            ok &= check_slope_evaluator(out)
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
