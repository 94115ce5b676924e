#!/usr/bin/env python3
"""Run perfbench on a parent commit and this checkout's HEAD in alternating
pairs, and write the next BENCH_<n>.json.

    python3 scripts/bench.py --against REV

The parent, REV, and the change, HEAD, are each checked out with ``git
worktree add --detach`` into a fresh temporary directory, so no leftover of
this checkout (its ``.perfbench/`` scratch files, its compiled bytecode)
reaches either side.  A checkout with uncommitted changes to tracked files is
refused before any run, since those changes would not be measured.  The
change tree's ``perfbench/run.py`` runs with the working directory at each
tree in turn (run.py imports ``src/spectilt`` from there), so one benchmark
measures both sides, with the window length of ``BENCHMARK.json``, one
process at a time.

Each workload first runs once per side at ``--trace 1`` on seed S, parent
first.  These runs compile each tree's bytecode before any paired run, and
the file holds their per-layer metrics as ``layers``.  Then it runs PAIRS
pairs, pair i on seed S+i-1 at ``--trace 0``, the parent first on odd pairs
and the change first on even ones; S is a fresh random seed.  The file holds
every pair's runs and, per workload and end-to-end metric, each side's
median and quartiles, the pairs the change won (ties count for neither
side), the gap between the medians, the parent's interquartile range and the
verdict: "met" when the change won at least nine in ten of the pairs and its
median is better than the parent's by more than the parent's interquartile
range.  It also carries both commits, S, the machine's core count and the
Python, numpy and scipy versions.  With REV at HEAD the run is an A/A run,
which measures the spread of the tool itself.

The file goes to this checkout's root.  If the checkout is dirty, a run
fails or any output check fails, nothing is written and the exit code is 1.
Both worktrees are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import secrets
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("design-grade", "stream-static", "stream-modulated")
SIDES = ("parent", "change")
PAIRS = 10


def perfbench(run_py: str, tree: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One run of the benchmark ``run_py`` from the tree at ``tree``; its result line parsed."""
    argv = [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print("bench:", " ".join(argv[2:]), "in", tree, file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
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


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def next_path() -> str:
    taken = [int(m.group(1)) for name in os.listdir(ROOT)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


@contextlib.contextmanager
def worktree(commit: str):
    """A detached checkout of ``commit`` in a fresh temporary directory,
    removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        tree = os.path.join(scratch, "tree")
        git("worktree", "add", "--detach", tree, commit)
        try:
            yield tree
        finally:
            git("worktree", "remove", "--force", tree)


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


def measure(trees: dict, better: dict, first_seed: int, seconds: float) -> dict:
    """Each workload's traced runs, then its alternating pairs and their verdicts."""
    run_py = os.path.join(trees["change"], "perfbench", "run.py")
    seeds = [first_seed + i for i in range(PAIRS)]
    out = {"first_seed": first_seed, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        layers = {side: perfbench(run_py, trees[side], workload, seeds[0], seconds, 1)["metrics"]
                  for side in SIDES}
        rows = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {"seed": seed, "first": order[0]}
            for side in order:
                result = perfbench(run_py, trees[side], workload, seed, seconds, 0)
                row[side] = {"attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {name: m["value"]
                                         for name, m in result["metrics"].items()}}
            rows.append(row)
        out["workloads"][workload] = {
            "pairs": rows,
            "metrics": {name: verdict([r["parent"]["metrics"][name] for r in rows],
                                      [r["change"]["metrics"][name] for r in rows],
                                      better[name])
                        for name in rows[0]["parent"]["metrics"] if name in better},
            "layers": layers,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the parent commit to measure HEAD against")
    args = parser.parse_args(argv)

    try:
        if git("status", "--porcelain", "--untracked-files=no"):
            raise RuntimeError("uncommitted changes to tracked files would not be measured")
        commits = {"parent": git("rev-parse", "--verify", f"{args.against}^{{commit}}"),
                   "change": git("rev-parse", "HEAD")}
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            benchmark = json.load(fh)
        better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
        with contextlib.ExitStack() as stack:
            trees = {side: stack.enter_context(worktree(commits[side])) for side in SIDES}
            measured = measure(trees, better, secrets.randbelow(1 << 30),
                               benchmark["run_seconds"])
    except (RuntimeError, ValueError, KeyError, subprocess.CalledProcessError) as exc:
        print(f"bench: {exc}; nothing written", file=sys.stderr)
        return 1
    out = {
        "revision": commits["change"],
        "against": commits["parent"],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seconds": benchmark["run_seconds"],
        **measured,
    }
    path = next_path()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"bench: wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
