"""Benchmark worker: a fresh process that imports spectilt and drives its API.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan (written by run.py) names the workload, the mode and every input;
this process only times the program and collects its outputs.  Nothing is
imported before `import spectilt`, so the timed import is the package's own
cold cost, numpy and scipy included.

Modes:
  setup  time the import and the workload's set-up, then exit;
  warm   set up, run one warm-up pass that records outputs, then untraced
         passes whenever run.py asks for them (see serve_passes);
  trace  set up, run one traced pass, time small untraced and traced
         passes in pairs for the tracing overhead, then probe every layer
         with spans and time `cli.main` in process for each subcommand.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from types import SimpleNamespace

from spans import Tracer, traced_api

# Attribute -> span name.  Spans are named module.function.
SPAN_NAMES = {
    "design_tilt": "design.design_tilt",
    "design_to_json": "design.design_to_json",
    "design_from_json": "design.design_from_json",
    "slope_report": "bode.slope_report",
    "write_report_csv": "bode.write_report_csv",
    "digitize_design": "digitize.digitize_design",
    "coefficients_to_json": "digitize.coefficients_to_json",
    "rebuild": "digitize.ModulationContext.rebuild",
    "StreamingFilter": "runtime.StreamingFilter",
    "for_design": "runtime.StreamingFilter.for_design",
    "set_alpha": "runtime.StreamingFilter.set_alpha",
    "process_b64": "runtime.StreamingFilter.process.b64",
    "process_b4096": "runtime.StreamingFilter.process.b4096",
    "process_b65536": "runtime.StreamingFilter.process.b65536",
    "GaussianSource": "runtime.GaussianSource",
    "gaussian_block": "runtime.GaussianSource.block",
    "colored_noise": "runtime.colored_noise",
}

CLI_SUBCOMMANDS = ("design", "bode", "digitize", "sweep", "apply_static", "apply_sweep", "noise")


def program_api(st) -> SimpleNamespace:
    """The public functions of every layer, called directly (no wrapper)."""
    return SimpleNamespace(
        design_tilt=st.design_tilt,
        design_to_json=st.design_to_json,
        design_from_json=st.design_from_json,
        slope_report=st.slope_report,
        write_report_csv=st.write_report_csv,
        digitize_design=st.digitize_design,
        coefficients_to_json=st.coefficients_to_json,
        rebuild=st.ModulationContext.rebuild,
        StreamingFilter=st.StreamingFilter,
        for_design=st.StreamingFilter.for_design,
        set_alpha=st.StreamingFilter.set_alpha,
        process_b64=st.StreamingFilter.process,
        process_b4096=st.StreamingFilter.process,
        process_b65536=st.StreamingFilter.process,
        GaussianSource=st.GaussianSource,
        gaussian_block=st.GaussianSource.block,
        colored_noise=st.colored_noise,
    )


def stock_design(st, plan):
    s = plan["stock"]
    return st.design_tilt(s["alpha"], order=s["order"], skip=s["skip"],
                          f_min_hz=s["f_min_hz"], f_max_hz=s["f_max_hz"])


# ---------------------------------------------------------------- set-up
# Each builds the workload's designs, files and filter objects; run.py
# times it together with the import.


def setup_design_grade(st, plan, files):
    for cell in plan["cells"]:
        design = st.design_tilt(cell["alpha"], order=cell["order"], skip=cell["skip"],
                                f_min_hz=cell["f_min_hz"], f_max_hz=cell["f_max_hz"],
                                integer_part=cell["integer_part"])
        st.coefficients_to_json(st.digitize_design(design, cell["fs_hz"])[0])
    return {"cells": plan["cells"]}


def setup_stream_static(st, plan, files):
    design = stock_design(st, plan)
    dfilt, _ = st.digitize_design(design, plan["fs_hz"])
    st.save_design(design, files["design"])
    st.save_coefficients(dfilt, files["coeffs"])
    st.StreamingFilter(dfilt)
    return {"dfilt": dfilt}


def setup_stream_modulated(st, plan, files):
    design = stock_design(st, plan)
    st.save_design(design, files["design"])
    st.StreamingFilter.for_design(design, plan["fs_hz"])
    return {"design": design}


SETUPS = {
    "design-grade": setup_design_grade,
    "stream-static": setup_stream_static,
    "stream-modulated": setup_stream_modulated,
}


# ---------------------------------------------------------------- passes
# One pass is the workload's fixed work.  Each returns (op times in ns,
# failed ops); ``emit`` receives outputs on the warm-up pass only.


def pass_design_grade(api, state, plan, emit):
    import numpy as np

    times, failed = [], 0
    ppi = plan["points_per_interval"]
    for cell in state["cells"]:
        t0 = time.perf_counter_ns()
        try:
            design = api.design_tilt(cell["alpha"], order=cell["order"], skip=cell["skip"],
                                     f_min_hz=cell["f_min_hz"], f_max_hz=cell["f_max_hz"],
                                     integer_part=cell["integer_part"])
            text = api.design_to_json(design)
            design = api.design_from_json(text)
            report = api.slope_report(design.filt, design.spec, design.placement,
                                      design.n, design.k_skip, points_per_interval=ppi)
            dfilt, _ = api.digitize_design(design, cell["fs_hz"])
            coeffs = api.coefficients_to_json(dfilt)
        except Exception as exc:  # one failed design must not end the pass
            failed += 1
            print(f"worker: design op failed: {exc!r}", file=sys.stderr)
            continue
        times.append(time.perf_counter_ns() - t0)
        if emit is not None:
            emit({
                "cell": cell,
                "design": text,
                "coeffs": coeffs,
                "max_abs_error_in_band": report.max_abs_error_in_band,
                "slope_samples": slope_samples(np, report, cell["probe"], plan["slope_samples"]),
            })
    return times, failed


def slope_samples(np, report, probe, count):
    """(ln omega, slope error) at the worst in-band grid point, then at
    ``count`` seeded in-band points."""
    lo, hi = report.good_band
    omega_log = report.grid.omega_log
    pad = 1e-9 * (omega_log[1] - omega_log[0])
    idx = np.nonzero((omega_log >= lo - pad) & (omega_log <= hi + pad))[0]
    worst = idx[int(np.argmax(np.abs(report.error[idx])))]
    picks = [worst] + [idx[(probe * (j + 7919)) % len(idx)] for j in range(count)]
    return [[float(omega_log[i]), float(report.error[i])] for i in picks]


def pass_stream_static(api, state, plan, emit):
    times, failed = [], 0
    x, block = state["x"], plan["static_block"]
    filt = api.StreamingFilter(state["dfilt"])
    for i in range(0, len(x), block):
        t0 = time.perf_counter_ns()
        try:
            y = api.process_b65536(filt, x[i:i + block])
        except Exception as exc:
            failed += 1
            print(f"worker: process failed: {exc!r}", file=sys.stderr)
            continue
        times.append(time.perf_counter_ns() - t0)
        if emit is not None:
            emit(y)
    return times, failed


def pass_stream_modulated(api, state, plan, emit):
    times, failed = [], 0
    x, alphas, block = state["x"], state["alphas"], plan["control_block"]
    filt = api.for_design(state["design"], plan["fs_hz"])
    for j, i in enumerate(range(0, len(x), block)):
        t0 = time.perf_counter_ns()
        try:
            api.set_alpha(filt, alphas[j])
            y = api.process_b64(filt, x[i:i + block])
        except Exception as exc:
            failed += 1
            print(f"worker: control block failed: {exc!r}", file=sys.stderr)
            continue
        times.append(time.perf_counter_ns() - t0)
        if emit is not None:
            emit((y, filt.denominators))
    return times, failed


PASSES = {
    "design-grade": pass_design_grade,
    "stream-static": pass_stream_static,
    "stream-modulated": pass_stream_modulated,
}


# ---------------------------------------------------------------- outputs


def open_sink(st, plan, files, state):
    """(emit, close) for the warm-up pass's outputs, written for run.py's
    checks.  Stream output goes to disk block by block, so that the worker's
    peak RSS is the program's and the input's, not a copy of the output."""
    import numpy as np

    workload = plan["workload"]
    if workload == "design-grade":
        items = []

        def close():
            with open(files["grade_outputs"], "w", encoding="utf-8") as fh:
                json.dump(items, fh)

        return items.append, close

    out = open(files["worker_out"], "wb")
    if workload == "stream-static":
        return (lambda y: out.write(y.astype("<f8").tobytes())), out.close

    dens = []

    def emit(item):
        out.write(item[0].astype("<f8").tobytes())
        dens.append(item[1])

    def close():
        out.close()
        np.save(files["denominators"], np.array(dens))
        # The coefficients the program delivers at the visited slopes, for the
        # delivered slope error; every 16th control block and the last one.
        _, context = st.digitize_design(state["design"], plan["fs_hz"])
        alphas = list(state["alphas"][::16]) + [state["alphas"][-1]]
        rows = [context.rebuild(a) for a in alphas]
        np.savez(files["delivered"], alphas=np.array(alphas),
                 b0=np.array([r[0] for r in rows]), b1=np.array([r[1] for r in rows]),
                 gain=np.array([r[2] for r in rows]))

    return emit, close


def load_inputs(plan, files, state) -> None:
    import numpy as np

    if plan["workload"] == "stream-static":
        state["x"] = np.fromfile(files["static_in"], dtype="<f8")
    elif plan["workload"] == "stream-modulated":
        state["x"] = np.fromfile(files["mod_in"], dtype="<f8")
        state["alphas"] = plan["alphas"]


# ---------------------------------------------------------------- layer probes


def probe_layers(st, api, plan, files) -> int:
    """Fixed calls into every layer, so that every per-layer metric has spans
    on every workload.  Returns the number of calls made."""
    import io

    import numpy as np

    calls = 0
    design = stock_design(st, plan)
    for _ in range(100):
        api.design_tilt(-0.5, order=20, skip=3, f_min_hz=20.0, f_max_hz=20000.0)
        api.design_from_json(api.design_to_json(design))
        calls += 3
    report = None
    for _ in range(30):
        report = api.slope_report(design.filt, design.spec, design.placement, design.n,
                                  design.k_skip, points_per_interval=plan["points_per_interval"])
        calls += 1
    for _ in range(5):
        api.write_report_csv(report, {}, io.StringIO())
        calls += 1
    dfilt = context = None
    for _ in range(50):
        dfilt, context = api.digitize_design(design, plan["fs_hz"])
        calls += 1
    for _ in range(100):
        api.coefficients_to_json(dfilt)
        calls += 1
    slopes = np.linspace(-1.0, 1.0, 256)
    for a in slopes:
        api.rebuild(context, a)
        calls += 1
    filt = api.for_design(design, plan["fs_hz"])
    for a in slopes:
        api.set_alpha(filt, a)
        calls += 1
    x = np.fromfile(files["static_in"], dtype="<f8", count=2 << 20)
    for attr, block, n in (("process_b64", 64, 16 << 10),
                           ("process_b4096", 4096, 1 << 20),
                           ("process_b65536", 65536, 2 << 20)):
        process = getattr(api, attr)
        filt = api.StreamingFilter(dfilt)
        for i in range(0, n, block):
            process(filt, x[i:i + block])
            calls += 1
    source = api.GaussianSource(plan["noise_seed"])
    for _ in range(32):
        api.gaussian_block(source, 65536)
        calls += 1
    for _ in range(3):
        api.colored_noise(-0.5, plan["noise_seed"], 1 << 20, plan["fs_hz"])
        calls += 1
    return calls


def probe_cli(st, tracer, plan, files) -> tuple[int, int]:
    """`cli.main` in process, after import, with the arguments of the cold
    commands.  Returns (calls, failed calls)."""
    import contextlib

    from spectilt import cli

    design = stock_design(st, plan)
    st.save_design(design, files["design"])
    st.save_coefficients(st.digitize_design(design, plan["fs_hz"])[0], files["coeffs"])
    calls = failed = 0
    for name in CLI_SUBCOMMANDS:
        argv = plan["cli_argv"][name]
        stdout_path = plan["cli_stdout"].get(name)
        for _ in range(3):
            with open(stdout_path or os.devnull, "w", encoding="utf-8") as out, \
                    open(os.devnull, "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    tracer.span(f"cli.{name}"):
                code = cli.main(argv)
            calls += 1
            failed += code != 0
    return calls, failed


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass plus the probes."""
    us, ms = 1e6, 1e3
    roundtrip = [a + b for a, b in zip(tracer.durations("design.design_to_json"),
                                       tracer.durations("design.design_from_json"))]
    blocks = {b: len(tracer.durations(f"runtime.StreamingFilter.process.b{b}"))
              for b in (64, 4096, 65536)}
    out = {
        "design.design_tilt_us": tracer.median_s("design.design_tilt") * us,
        "serialize.design_json_roundtrip_us": statistics.median(roundtrip) * 1e-9 * us,
        "bode.slope_report_ms": tracer.median_s("bode.slope_report") * ms,
        "bode.write_report_csv_ms": tracer.median_s("bode.write_report_csv") * ms,
        "digitize.digitize_design_us": tracer.median_s("digitize.digitize_design") * us,
        "digitize.coefficients_json_us": tracer.median_s("digitize.coefficients_to_json") * us,
        "digitize.rebuild_us": tracer.median_s("digitize.ModulationContext.rebuild") * us,
        "runtime.set_alpha_us": tracer.median_s("runtime.StreamingFilter.set_alpha") * us,
        "runtime.gaussian_ns_per_sample":
            tracer.median_s("runtime.GaussianSource.block") * 1e9 / 65536,
        "runtime.colored_noise_s": tracer.median_s("runtime.colored_noise"),
        "runtime.samples": sum(b * n for b, n in blocks.items()),
        "runtime.blocks": sum(blocks.values()),
        "runtime.alpha_updates": len(tracer.durations("runtime.StreamingFilter.set_alpha")),
    }
    for b in (64, 4096, 65536):
        out[f"runtime.process_ns_per_sample.b{b}"] = (
            tracer.median_s(f"runtime.StreamingFilter.process.b{b}") * 1e9 / b)
    for name in CLI_SUBCOMMANDS:
        out[f"cli.{name}_warm_s"] = tracer.median_s(f"cli.{name}")
    return out


# ---------------------------------------------------------------- main


def serve_passes(run_pass):
    """Run whole passes on request, so that run.py can interleave them with
    cold CLI rounds across the whole measured window.

    Protocol on stdin/stdout: this process prints ``ready``; each ``pass S``
    line runs passes until S seconds are spent (at least one) and answers
    ``done``; end of input ends.  Returns (pass times, op times, ops, failed).
    """
    pass_times, op_times, ops, failed = [], [], 0, 0
    print("ready", flush=True)
    for line in sys.stdin:
        deadline = time.perf_counter() + float(line.split()[1])
        while True:
            t0 = time.perf_counter()
            times, bad = run_pass()
            pass_times.append(time.perf_counter() - t0)
            op_times += times
            ops += len(times) + bad
            failed += bad
            if time.perf_counter() >= deadline:
                break
        print("done", flush=True)
    return pass_times, op_times, ops, failed


def tracing_overhead(run_pass, api, state, plan):
    """Median ratio of traced to untraced time over adjacent pairs of
    eighth-size passes, which share the machine's state far better than two
    whole passes do.  Pairs alternate which side runs first.  Returns
    (ratio, ops, failed ops)."""
    small = {key: value[:len(value) // 8] if key in ("cells", "x", "alphas") else value
             for key, value in state.items()}
    ratios, ops, failed = [], 0, 0
    deadline = time.perf_counter() + plan["warm_seconds"]
    while len(ratios) < plan["min_pairs"] or time.perf_counter() < deadline:
        pair = {}
        for kind in ("untraced", "traced")[::1 if len(ratios) % 2 == 0 else -1]:
            pass_api = api if kind == "untraced" else traced_api(api, SPAN_NAMES, Tracer())
            t0 = time.perf_counter()
            times, bad = run_pass(pass_api, small, plan, None)
            pair[kind] = time.perf_counter() - t0
            ops, failed = ops + len(times) + bad, failed + bad
        ratios.append(pair["traced"] / pair["untraced"])
    return statistics.median(ratios), ops, failed


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    files = plan["files"]

    t0 = time.perf_counter()
    import spectilt as st

    state = SETUPS[plan["workload"]](st, plan, files)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if plan["mode"] == "setup":
        return write_result(result_path, result)

    load_inputs(plan, files, state)
    api = program_api(st)
    run_pass = PASSES[plan["workload"]]
    emit, close = open_sink(st, plan, files, state)
    warm_times, warm_failed = run_pass(api, state, plan, emit)
    close()
    attempted, failed = len(warm_times) + warm_failed, warm_failed

    if plan["mode"] == "warm":
        pass_times, op_times, ops, bad = serve_passes(lambda: run_pass(api, state, plan, None))
        op_times.sort()
        result.update({
            "warm_pass_s": statistics.median(pass_times),
            "passes": len(pass_times),
            "ops": len(op_times),
            "op_p50_us": statistics.median(op_times) * 1e-3,
            "op_p99_us": percentile(op_times, 99) * 1e-3,
        })
        attempted, failed = attempted + ops, failed + bad
    else:
        tracer = Tracer()
        with tracer.span(f"pass.{plan['workload']}"):
            times, bad = run_pass(traced_api(api, SPAN_NAMES, tracer), state, plan, None)
        attempted, failed = attempted + len(times) + bad, failed + bad
        ratio, ops, bad = tracing_overhead(run_pass, api, state, plan)
        attempted, failed = attempted + ops, failed + bad
        with tracer.span("probe.layers"):
            attempted += probe_layers(st, traced_api(api, SPAN_NAMES, tracer), plan, files)
        calls, bad = probe_cli(st, tracer, plan, files)
        attempted, failed = attempted + calls, failed + bad
        tracer.dump(files["trace"])
        result["layers"] = layer_metrics(tracer)
        result["layers"]["trace.overhead_ratio"] = ratio
        result["layers"]["trace.spans"] = len(tracer.spans)

    result.update({
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
    })
    return write_result(result_path, result)


def peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM).  ru_maxrss would also count the
    resident size of the process that forked this one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def write_result(path, result) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
