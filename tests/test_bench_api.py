"""The program surface that perfbench's worker drives stays in reach.

perfbench/worker.py builds its table of calls from the package and reads
the objects they return: a report's grid and good band, a filter's
denominators, a modulation context's rebuild.  Here each workload's set-up,
pass and output sink run in process on small inputs, the layer probes run
once, and every cold command's argv is parsed, so that removing or renaming
a name the benchmark needs fails a test.  Nothing in perfbench/ is edited.
"""

import os

import pytest

import spectilt
from spectilt.cli import build_parser

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
WORKLOADS = ["design-grade", "stream-static", "stream-modulated"]
SIZES = {"static_samples": 3 << 16, "noise_samples": 4096, "mod_samples": 4096,
         "grid_cells": 4}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    import spans
    import worker

    return run, spans, worker


def plan_for(run, tmp_path, workload: str, trace: int, sizes=SIZES) -> dict:
    plan = run.make_plan(str(tmp_path), str(tmp_path), workload, 1, 1.0, trace, sizes)
    run.write_inputs(plan)
    return plan


def test_api_table_resolves(perfbench):
    _, spans, worker = perfbench
    api = worker.program_api(spectilt)
    assert set(vars(api)) == set(worker.SPAN_NAMES)
    spans.traced_api(api, worker.SPAN_NAMES, spans.Tracer())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_as_the_worker_runs_it(perfbench, tmp_path, workload):
    run, spans, worker = perfbench
    plan = plan_for(run, tmp_path, workload, 0)
    files = plan["files"]
    state = worker.SETUPS[workload](spectilt, plan, files)
    worker.load_inputs(plan, files, state)
    api = worker.program_api(spectilt)
    emit, close = worker.open_sink(spectilt, plan, files, state)
    times, failed = worker.PASSES[workload](api, state, plan, emit)
    close()
    assert failed == 0 and times
    traced = spans.traced_api(api, worker.SPAN_NAMES, spans.Tracer())
    times, failed = worker.PASSES[workload](traced, state, plan, None)
    assert failed == 0 and times


def test_layer_probes_and_cold_commands(perfbench, tmp_path):
    run, spans, worker = perfbench
    # probe_layers reads 2 Mi samples of the static input.
    plan = plan_for(run, tmp_path, "stream-modulated", 1, dict(SIZES, static_samples=2 << 20))
    api = spans.traced_api(worker.program_api(spectilt), worker.SPAN_NAMES, spans.Tracer())
    assert worker.probe_layers(spectilt, api, plan, plan["files"]) > 0
    parser = build_parser()
    for name in worker.CLI_SUBCOMMANDS:
        parser.parse_args(plan["cli_argv"][name])
