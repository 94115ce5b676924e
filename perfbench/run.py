"""End-to-end and per-layer benchmark of spectilt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the directory that holds
`src/spectilt`.  Workloads: design-grade, stream-static, stream-modulated
(see README.md beside this file).  With `--trace 0` the last line of stdout
is one JSON object with the end-to-end metrics; with `--trace 1` it holds
the per-layer metrics of a separate traced run.  Scratch inputs live in
`.perfbench/run-*` and are removed at the end; traces are kept in
`.perfbench/`.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3  # fresh set-ups per run, the warm worker's included; setup_s is their median
WARM_SHARE = 1.0 / 3.0  # share of the window for in-process passes; the rest runs cold CLI rounds
MIN_PAIRS = 3  # traced/untraced pairs behind trace.overhead_ratio
MIN_ROUNDS = 3
IMPORT_REPEATS = 3
MPMATH_EVERY = 9  # design-grade cells (in seeded order) whose slope report mpmath checks

COLD_SEQUENCES = {
    "design-grade": ("design", "bode", "digitize", "sweep"),
    "stream-static": ("apply_static", "noise"),
    "stream-modulated": ("apply_sweep",),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_cli_s": "s",
    "warm_pass_s": "s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MB",
    "cli_peak_rss_mb": "MB",
    "slope_err_max": "Np/Np",
}

LAYER_UNITS = {
    "import.spectilt_s": "s",
    "import.scipy_signal_s": "s",
    "import.modules_design_cli": "count",
    "design.design_tilt_us": "us",
    "serialize.design_json_roundtrip_us": "us",
    "bode.slope_report_ms": "ms",
    "bode.write_report_csv_ms": "ms",
    "digitize.digitize_design_us": "us",
    "digitize.coefficients_json_us": "us",
    "digitize.rebuild_us": "us",
    "runtime.process_ns_per_sample.b64": "ns",
    "runtime.process_ns_per_sample.b4096": "ns",
    "runtime.process_ns_per_sample.b65536": "ns",
    "runtime.set_alpha_us": "us",
    "runtime.gaussian_ns_per_sample": "ns",
    "runtime.colored_noise_s": "s",
    **{f"cli.{name}_warm_s": "s" for name in
       ("design", "bode", "digitize", "sweep", "apply_static", "apply_sweep", "noise")},
    "runtime.samples": "count",
    "runtime.blocks": "count",
    "runtime.alpha_updates": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing source, crashed worker)."""


def default_sizes() -> dict:
    return {
        "static_samples": wl.STATIC_SAMPLES,
        "noise_samples": wl.NOISE_SAMPLES,
        "mod_samples": wl.MOD_SAMPLES,
        "grid_cells": None,  # all of them
    }


# ---------------------------------------------------------------- plan and inputs


def make_plan(root, run_dir, workload, seed, seconds, trace, sizes) -> dict:
    names = {
        "design": "stock_design.json", "coeffs": "stock_coeffs.json",
        "static_in": "static_in.raw", "mod_in": "mod_in.raw",
        "worker_out": "worker_out.raw", "denominators": "denominators.npy",
        "delivered": "delivered.npz", "grade_outputs": "grade_outputs.json",
        "cli_design": "cli_design.json", "cli_coeffs": "cli_coeffs.json",
        "cli_bode": "cli_bode.csv", "cli_sweep": "cli_sweep.csv",
        "cli_static_out": "cli_static_out.raw", "cli_noise": "cli_noise.raw",
        "cli_mod_out": "cli_mod_out.raw", "cli_stderr": "cli_stderr.txt",
    }
    files = {key: os.path.join(run_dir, name) for key, name in names.items()}
    files["trace"] = os.path.join(root, ".perfbench", f"trace-{workload}-seed{seed}.json")

    cells = wl.design_grid(seed)
    if sizes["grid_cells"] is not None:
        cells = cells[:sizes["grid_cells"]]
    alpha = wl.cli_alpha(seed)
    nseed = wl.noise_seed(seed)
    mod_samples = sizes["mod_samples"]
    band = ["--fmin", repr(wl.STOCK_BAND[0]), "--fmax", repr(wl.STOCK_BAND[1])]
    fs = repr(wl.FS)
    argv = {
        "design": ["design", "--alpha", repr(alpha), "--order", str(wl.STOCK_ORDER),
                   "--skip", str(wl.STOCK_SKIP), *band, "-o", files["cli_design"]],
        "bode": ["bode", "--design", files["cli_design"],
                 "--points-per-interval", str(wl.POINTS_PER_INTERVAL)],
        "digitize": ["digitize", "--design", files["cli_design"], "--fs", fs,
                     "-o", files["cli_coeffs"]],
        "sweep": ["sweep", "--alpha", repr(alpha), *band, "--orders", wl.range_flag(wl.SWEEP_ORDERS),
                  "--skips", wl.range_flag(wl.SWEEP_SKIPS)],
        "apply_static": ["apply", "--coeffs", files["coeffs"], "-i", files["static_in"],
                         "-o", files["cli_static_out"]],
        "apply_sweep": ["apply", "--design", files["design"], "--fs", fs, wl.sweep_flag(),
                        "-i", files["mod_in"], "-o", files["cli_mod_out"]],
        "noise": ["noise", "--color", repr(wl.NOISE_COLOR), "--seed", str(nseed),
                  "--samples", str(sizes["noise_samples"]), "--fs", fs, *band,
                  "-o", files["cli_noise"]],
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "root": root,
        "run_dir": run_dir,
        "files": files,
        "seconds": seconds,
        "warm_seconds": WARM_SHARE * seconds,
        "min_pairs": MIN_PAIRS,
        "min_rounds": MIN_ROUNDS,
        "stock": {"alpha": wl.STOCK_ALPHA, "order": wl.STOCK_ORDER, "skip": wl.STOCK_SKIP,
                  "f_min_hz": wl.STOCK_BAND[0], "f_max_hz": wl.STOCK_BAND[1]},
        "fs_hz": wl.FS,
        "cells": cells,
        "points_per_interval": wl.POINTS_PER_INTERVAL,
        "slope_samples": wl.SLOPE_SAMPLES_PER_DESIGN,
        "cli_alpha": alpha,
        "noise_seed": nseed,
        "static_block": wl.STATIC_BLOCK,
        "control_block": wl.CONTROL_BLOCK,
        "alphas": wl.sweep_schedule(mod_samples).tolist(),
        "sizes": sizes,
        "cli_argv": argv,
        "cli_stdout": {"bode": files["cli_bode"], "sweep": files["cli_sweep"]},
    }


def write_inputs(plan) -> None:
    """The benchmark's own input generation; never part of a timed figure."""
    files, sizes, seed = plan["files"], plan["sizes"], plan["seed"]
    needs_static = plan["trace"] or plan["workload"] == "stream-static"
    needs_mod = plan["trace"] or plan["workload"] == "stream-modulated"
    if needs_static:
        wl.gaussian_stream(seed, sizes["static_samples"]).astype("<f8").tofile(files["static_in"])
    if needs_mod:
        wl.gaussian_stream(seed, sizes["mod_samples"]).astype("<f8").tofile(files["mod_in"])


# ---------------------------------------------------------------- children


def child_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Peer:
    """A helper process that answers one stdout line per stdin line."""

    def __init__(self, argv, root, what):
        self.what = what
        self.proc = subprocess.Popen(argv, env=child_env(root), cwd=root, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.what} ended early (exit {self.proc.wait()})")
        return line.strip()

    def ask(self, line) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self) -> None:
        """Close its input and wait for a clean exit."""
        self.proc.stdin.close()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"{self.what} exited with {code}")

    def close(self) -> None:
        """Stop the process if it is still running and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def worker(plan, mode) -> tuple[Peer, str]:
    """Start worker.py in ``mode``; returns it and the path of its result file."""
    plan_path = os.path.join(plan["run_dir"], f"plan-{mode}.json")
    result_path = os.path.join(plan["run_dir"], f"result-{mode}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(dict(plan, mode=mode), fh)
    peer = Peer([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                plan["root"], f"worker ({mode})")
    return peer, result_path


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(plan, mode) -> dict:
    """Run worker.py in a one-shot mode (setup or trace) and return its result."""
    peer, result_path = worker(plan, mode)
    try:
        peer.finish()
    finally:
        peer.close()
    return read_json(result_path)


def cold_round(plan, launcher, stats) -> float:
    """One round of the workload's fresh `python -m spectilt` commands, one at a time."""
    total = 0.0
    for name in COLD_SEQUENCES[plan["workload"]]:
        reply = json.loads(launcher.ask(json.dumps({
            "argv": [sys.executable, "-m", "spectilt", *plan["cli_argv"][name]],
            "stdout": plan["cli_stdout"].get(name),
            "stderr": plan["files"]["cli_stderr"],
        })))
        total += reply["wall_s"]
        stats["cli_peak_rss_mb"] = max(stats["cli_peak_rss_mb"], reply["maxrss_kb"] / 1024.0)
        stats["attempted"] += 1
        stats["failed"] += reply["code"] != 0
    return total


def measure(plan) -> dict:
    """Warm passes in a long-lived worker, interleaved with cold rounds.

    Each cold round is followed by a slice of warm passes sized so that warm
    work takes WARM_SHARE of the window.  Spreading both over the whole
    window keeps a slow spell of the machine from landing on one metric only.
    """
    peer, result_path = worker(plan, "warm")
    launcher = Peer([sys.executable, os.path.join(HERE, "launch.py")], plan["root"], "launcher")
    stats = {"cli_peak_rss_mb": 0.0, "attempted": 0, "failed": 0}
    rounds = []
    slice_s = cycle_s = 0.0
    try:
        if peer.read() != "ready":
            raise BenchError("worker (warm) did not start")
        deadline = time.perf_counter() + plan["seconds"]
        # Whole cycles only; start one if it should end less than half a cycle late.
        while len(rounds) < plan["min_rounds"] or time.perf_counter() + cycle_s / 2 <= deadline:
            t0 = time.perf_counter()
            if peer.ask(f"pass {slice_s!r}") != "done":
                raise BenchError("worker (warm) did not finish its passes")
            rounds.append(cold_round(plan, launcher, stats))
            slice_s = rounds[-1] * WARM_SHARE / (1.0 - WARM_SHARE)
            cycle_s = time.perf_counter() - t0
        peer.finish()
        launcher.finish()
    finally:
        peer.close()
        launcher.close()
    result = read_json(result_path)
    result["attempted"] += stats["attempted"]
    result["failed"] += stats["failed"]
    result.update(cli_peak_rss_mb=stats["cli_peak_rss_mb"], cold_cli_s=statistics.median(rounds),
                  rounds=len(rounds))
    return result


MODULE_COUNTER = ("import runpy, sys\n"
                  "sys.argv = ['spectilt'] + sys.argv[1:]\n"
                  "try:\n"
                  "    runpy.run_module('spectilt', run_name='__main__', alter_sys=True)\n"
                  "except SystemExit as exc:\n"
                  "    if exc.code:\n"
                  "        raise\n"
                  "print(len(sys.modules))\n")


def import_probes(plan) -> tuple[dict, int]:
    """Fresh-process import figures; returns (metrics, processes run).

    `import spectilt` and its `scipy.signal` share are the cumulative times of
    their lines in `python -X importtime -c "import spectilt"`.
    """
    env, root = child_env(plan["root"]), plan["root"]

    def run_python(args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, cwd=root, check=True,
                              capture_output=True, text=True)

    def cumulative_s(log, module) -> float:
        found = re.search(rf"^import time:\s+\d+ \|\s+(\d+) \| +{re.escape(module)}$", log, re.M)
        return int(found.group(1)) * 1e-6 if found else 0.0

    logs = [run_python(["-X", "importtime", "-c", "import spectilt"]).stderr
            for _ in range(IMPORT_REPEATS)]
    modules = int(run_python(["-c", MODULE_COUNTER, *plan["cli_argv"]["design"]]).stdout)
    return {
        "import.spectilt_s": statistics.median(cumulative_s(log, "spectilt") for log in logs),
        "import.scipy_signal_s": statistics.median(cumulative_s(log, "scipy.signal") for log in logs),
        "import.modules_design_cli": modules,
    }, IMPORT_REPEATS + 1


# ---------------------------------------------------------------- outputs and checks


def read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def collect_outputs(plan) -> dict:
    files, workload = plan["files"], plan["workload"]
    if workload == "design-grade":
        with open(files["grade_outputs"], encoding="utf-8") as fh:
            cells = json.load(fh)
        return {"cells": cells, "cli_design": read_text(files["cli_design"]),
                "cli_coeffs": read_text(files["cli_coeffs"]),
                "cli_bode": read_text(files["cli_bode"]), "cli_sweep": read_text(files["cli_sweep"])}
    x_path = files["static_in"] if workload == "stream-static" else files["mod_in"]
    out = {"x": np.fromfile(x_path, dtype="<f8"),
           "y": np.fromfile(files["worker_out"], dtype="<f8")}
    if workload == "stream-static":
        out.update(design=read_text(files["design"]), coeffs=read_text(files["coeffs"]),
                   cli_y=read_bytes(files["cli_static_out"]),
                   noise=np.fromfile(files["cli_noise"], dtype="<f8"))
    else:
        delivered = np.load(files["delivered"])
        out.update(dens=np.load(files["denominators"]), cli_y=read_bytes(files["cli_mod_out"]),
                   delivered={key: delivered[key] for key in delivered.files})
    return out


def cli_design_request(plan) -> dict:
    return {"alpha": plan["cli_alpha"], "order": wl.STOCK_ORDER, "skip": wl.STOCK_SKIP,
            "integer_part": 0, "f_min_hz": wl.STOCK_BAND[0], "f_max_hz": wl.STOCK_BAND[1]}


def merge(into: dict, check, *args) -> None:
    """Apply one check function and fold its results into ``into``: a check
    passes only if it passes on every output it is applied to.  Output the
    check cannot even read fails under the function's name."""
    try:
        results = check(*args)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        results = {check.__name__: (False, f"unreadable output: {exc!r}")}
    for name, (ok, detail) in results.items():
        prev_ok, prev_detail = into.get(name, (True, ""))
        into[name] = (prev_ok and ok, detail if not ok or prev_ok else prev_detail)


def check_outputs(plan, out) -> dict[str, tuple[bool, str]]:
    workload, fs = plan["workload"], plan["fs_hz"]
    results: dict[str, tuple[bool, str]] = {}
    if workload == "design-grade":
        for i, item in enumerate(out["cells"]):
            cell = item["cell"]
            merge(results, checks.check_design, item["design"], cell)
            merge(results, checks.check_report, item["design"], item["max_abs_error_in_band"],
                  item["slope_samples"], i % MPMATH_EVERY == 0)
            merge(results, checks.check_coeffs, item["coeffs"], item["design"], cell["fs_hz"])
        merge(results, checks.check_design, out["cli_design"], cli_design_request(plan))
        merge(results, checks.check_coeffs, out["cli_coeffs"], out["cli_design"], fs)
        merge(results, checks.check_bode_csv, out["cli_bode"], out["cli_design"], plan["seed"])
        merge(results, checks.check_sweep_csv, out["cli_sweep"], plan["cli_alpha"],
              wl.SWEEP_ORDERS, wl.SWEEP_SKIPS, wl.STOCK_BAND)
    elif workload == "stream-static":
        merge(results, checks.check_coeffs, out["coeffs"], out["design"], fs)
        merge(results, checks.check_static_stream, out["coeffs"], out["x"], out["y"], out["cli_y"])
        merge(results, checks.check_noise, out["noise"], wl.NOISE_COLOR, fs)
    else:
        merge(results, checks.check_modulated_stream, plan["stock"], fs, plan["control_block"],
              plan["alphas"], out["x"], out["y"], out["dens"], out["cli_y"])
    return results


def slope_err_max(plan, out) -> float:
    """Largest in-band |slope error| of the delivered digital coefficients."""
    workload = plan["workload"]
    if workload == "design-grade":
        worst = 0.0
        for item in out["cells"]:
            cell, c = item["cell"], checks.parse_coeffs(item["coeffs"])
            worst = max(worst, checks.delivered_slope_error(
                c["b0"], c["b1"], c["a1"], cell["fs_hz"], cell["f_min_hz"], cell["f_max_hz"],
                cell["alpha"] + cell["integer_part"]))
        return worst
    band = (plan["stock"]["f_min_hz"], plan["stock"]["f_max_hz"])
    if workload == "stream-static":
        c = checks.parse_coeffs(out["coeffs"])
        return checks.delivered_slope_error(c["b0"], c["b1"], c["a1"], plan["fs_hz"], *band,
                                            plan["stock"]["alpha"])
    d, a1 = out["delivered"], out["dens"][0]
    return max(checks.delivered_slope_error(b0, b1, a1, plan["fs_hz"], *band, alpha)
               for alpha, b0, b1 in zip(d["alphas"], d["b0"], d["b1"]))


# ---------------------------------------------------------------- run


def run(root, workload, seed, seconds, trace) -> dict:
    if not os.path.isfile(os.path.join(root, "src", "spectilt", "__init__.py")):
        raise BenchError(f"no spectilt source under {root}/src: run from a source checkout")
    run_dir = os.path.join(root, ".perfbench", f"run-{os.getpid()}-{workload}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        plan = make_plan(root, run_dir, workload, seed, seconds, trace, default_sizes())
        write_inputs(plan)
        if trace:
            worker = run_worker(plan, "trace")
            metrics, processes = import_probes(plan)
            metrics.update(worker["layers"])
            attempted, failed = worker["attempted"] + processes, worker["failed"]
        else:
            setups = [run_worker(plan, "setup")["setup_s"]]
            m = measure(plan)
            setups.append(m["setup_s"])
            setups += [run_worker(plan, "setup")["setup_s"] for _ in range(SETUP_REPEATS - 2)]
            metrics = {name: m[name] for name in END_TO_END_UNITS if name != "slope_err_max"}
            metrics["setup_s"] = statistics.median(setups)
            attempted, failed = m["attempted"], m["failed"]
            print(f"perfbench: {m['passes']} warm passes ({m['ops']} ops), "
                  f"{m['rounds']} cold rounds", file=sys.stderr)
        outputs = collect_outputs(plan)
        results = check_outputs(plan, outputs)
        if not trace:
            metrics["slope_err_max"] = slope_err_max(plan, outputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, (ok, detail) in sorted(results.items()):
        print(f"perfbench: check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} missing or unexpected")
    return {
        "correct": all(ok for ok, _ in results.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(os.getcwd(), args.workload, args.seed % (1 << 63), args.seconds,
                     bool(args.trace))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
