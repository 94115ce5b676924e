#!/usr/bin/env python3
"""Run perfbench over fixed seeds and write the next BENCH_<n>.json.

    python3 scripts/bench.py

From the checkout that holds this script, it runs ``perfbench/run.py`` as it
stands, with the window length of ``BENCHMARK.json``: every workload once per
seed in SEEDS at ``--trace 0``, then once at ``--trace 1`` on the first seed,
one process at a time.  The file it writes in the checkout's root holds, per
workload, the median and quartiles of every end-to-end metric over the
seeds, the per-layer metrics of the traced run, the operation counts, and
the machine's core count, the Python, numpy and scipy versions and the git
revision.  Each performance change re-runs it and commits the next file as
a record of its numbers.  Two files are run at different times, not in
alternating pairs, so they record a trajectory but cannot by themselves show
a gain on a machine whose speed drifts.  If a run fails or any output check
fails, nothing is written and the exit code is 1.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (101, 202, 303)
WORKLOADS = ("design-grade", "stream-static", "stream-modulated")


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line parsed."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("bench:", " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: an output check failed")
    return result


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def revision() -> str:
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    rev = git("rev-parse", "HEAD")
    return rev + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def next_path() -> str:
    taken = [int(m.group(1)) for name in os.listdir(ROOT)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {
        "revision": revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": SEEDS[0],
        "workloads": {},
    }
    try:
        for workload in WORKLOADS:
            runs = [perfbench(workload, seed, seconds, 0) for seed in SEEDS]
            traced = perfbench(workload, SEEDS[0], seconds, 1)
            out["workloads"][workload] = {
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "metrics": {
                    name: {"unit": m["unit"],
                           **summary([r["metrics"][name]["value"] for r in runs])}
                    for name, m in runs[0]["metrics"].items()
                },
                "layers": traced["metrics"],
            }
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"bench: {exc}; nothing written", file=sys.stderr)
        return 1
    path = next_path()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"bench: wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
