#!/usr/bin/env python3
"""Run perfbench and write the next BENCH_<n>.json: a record, or a claim's pairs.

    python3 scripts/bench.py
    python3 scripts/bench.py --against REV

From the checkout that holds this script, it runs ``perfbench/run.py`` as it
stands, with the window length of ``BENCHMARK.json``, one process at a time.
If a run fails or any output check fails, nothing is written and the exit
code is 1.  The file goes to the checkout's root and carries the machine's
core count, the Python, numpy and scipy versions and the git revision.

Without ``--against`` it records: every workload once per seed in SEEDS at
``--trace 0``, then once at ``--trace 1`` on the first seed.  The file holds,
per workload, the median and quartiles of every end-to-end metric over the
seeds, the per-layer metrics of the traced run and the operation counts.
Two such files are run at different times, not in alternating pairs, so they
record a trajectory but cannot by themselves show a gain on a machine whose
speed drifts.

With ``--against REV`` it measures a claim.  REV is checked out with ``git
worktree add --detach`` into a temporary directory, and this checkout's
``perfbench/run.py`` runs with the working directory at each tree in turn
(run.py imports ``src/spectilt`` from there), so one benchmark measures both
sides.  Every workload runs PAIRS pairs, pair i on seed S+i-1 at ``--trace
0``, REV first on odd pairs and this checkout first on even ones; S is a
fresh random seed, recorded in the file.  Before and after each run a fixed
pure-Python kernel is timed, which imports neither spectilt nor numpy, so
that a reader can tell a slow spell of the machine from a regression.  The
file holds every pair's runs and, per workload and end-to-end metric, each
side's median and quartiles, the pairs the change won (ties count for
neither side), the gap between the medians, the parent's interquartile
range and the verdict: "met" when the change won at least nine in ten of
the pairs and its median is better than the parent's by more than the
parent's interquartile range.  After its pairs, every workload runs once
per side at ``--trace 1`` on the first pair's seed, parent first, and the
file holds each side's per-layer metrics as ``layers``.  The worktree is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (101, 202, 303)
WORKLOADS = ("design-grade", "stream-static", "stream-modulated")
PAIRS = 10
CONTROL_REPEATS = 5


def perfbench(workload: str, seed: int, seconds: float, trace: int, cwd: str = ROOT) -> dict:
    """One perfbench run from the tree at ``cwd``; its result line parsed."""
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("bench:", " ".join(argv[2:]), "in", cwd, file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: an output check failed")
    return result


def control_s() -> float:
    """Median time of a fixed pure-Python kernel: the machine's speed just now."""
    times = []
    for _ in range(CONTROL_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def revision() -> str:
    rev = git("rev-parse", "HEAD")
    return rev + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def next_path() -> str:
    taken = [int(m.group(1)) for name in os.listdir(ROOT)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


def record(seconds: float) -> dict:
    """Every workload on SEEDS, plus one traced run each."""
    out = {"seeds": list(SEEDS), "trace_seed": SEEDS[0], "workloads": {}}
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
    return out


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule over paired runs of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gain = sign * (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    met = 10 * won >= 9 * len(parent) and gain > iqr
    return {"won": won, "lost": lost, "pairs": len(parent),
            "median_gap": c["median"] - p["median"], "parent_iqr": iqr,
            "verdict": "met" if met else "not met", "parent": p, "change": c}


def measure_pairs(tree: str, first_seed: int, seconds: float) -> dict:
    """Alternating parent/change runs of each workload, and their verdicts."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    seeds = [first_seed + i for i in range(PAIRS)]
    trees = {"parent": tree, "change": ROOT}
    out = {"seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        rows = []
        for i, seed in enumerate(seeds):
            row = {"seed": seed, "first": "parent" if i % 2 == 0 else "change"}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                before = control_s()
                result = perfbench(workload, seed, seconds, 0, trees[side])
                row[side] = {"attempted": result["attempted"], "failed": result["failed"],
                             "control_s": [before, control_s()],
                             "metrics": {name: m["value"]
                                         for name, m in result["metrics"].items()}}
            rows.append(row)
        names = [name for name in rows[0]["parent"]["metrics"] if name in better]
        out["workloads"][workload] = {
            "pairs": rows,
            "metrics": {name: verdict([r["parent"]["metrics"][name] for r in rows],
                                      [r["change"]["metrics"][name] for r in rows],
                                      better[name]) for name in names},
            "control_s": {side: summary([t for r in rows for t in r[side]["control_s"]])
                          for side in trees},
            "layers": {side: perfbench(workload, seeds[0], seconds, 1, trees[side])["metrics"]
                       for side in trees},
        }
    return out


def against(rev: str, seconds: float) -> dict:
    """measure_pairs with REV checked out in a temporary worktree, from a
    fresh random seed."""
    first_seed = secrets.randbelow(1 << 30)
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    scratch = tempfile.mkdtemp(prefix="bench-against-")
    tree = os.path.join(scratch, "tree")
    git("worktree", "add", "--detach", tree, commit)
    try:
        out = measure_pairs(tree, first_seed, seconds)
    finally:
        git("worktree", "remove", "--force", tree)
        shutil.rmtree(scratch, ignore_errors=True)
    return {"against": commit, "first_seed": first_seed, **out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="measure this checkout against REV in alternating pairs")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {
        "revision": revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seconds": seconds,
    }
    try:
        out.update(record(seconds) if args.against is None else against(args.against, seconds))
    except (RuntimeError, ValueError, KeyError, subprocess.CalledProcessError) as exc:
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
