#!/usr/bin/env python
"""Append end-to-end benchmark entries to ``BENCH_e2e.json``.

    python tools/bench_e2e.py                 # measure the working tree
    python tools/bench_e2e.py --against REV   # and REV, alternately

Runs ``perfbench/run.py --trace 0`` for every workload in ``BENCHMARK.json``
on each seed of ``SEEDS``, and appends one entry per measured tree to
``BENCH_e2e.json`` at the repository root.  An entry holds the commit and
whether the tree was dirty, the date, the host (CPU count and Python, NumPy
and SciPy versions), the seeds and run length, and per workload the median
and quartiles over the seeds of each scaled end-to-end metric.  A working
tree with uncommitted changes is recorded as its ``HEAD`` commit with
``"dirty": true``.

With ``--against REV`` the committed files of REV are exported (``git
archive``) to a temporary directory under ``.perfbench/`` and measured too.
The two trees alternate run by run, each pair starting with the other tree,
so that host drift hits both alike; the directory is removed afterwards.
REV's entry is appended first, and both entries carry the same date.  A
shared host's speed drifts by tens of percent over hours, so a speed claim
is the ratio within such a pair; the absolute numbers are the trajectory.
The file is append-only.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_e2e.json")

#: The seeds every workload runs on, in both trees.
SEEDS = (1, 2, 3)

#: Seconds of each run's timed phase.  Shorter than the benchmark's 20 s,
#: so that measuring two trees takes about 7 minutes on a 2-CPU host.
RUN_SECONDS = 10


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(commit: str, into: str) -> None:
    """Extract the committed files of ``commit`` into the directory ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int) -> dict[str, dict]:
    """The end-to-end metrics of one untraced perfbench run in ``tree``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} failed in {tree}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def summarize(runs: list[dict[str, dict]]) -> dict[str, dict]:
    """Per metric: its unit, and the quartiles and median over ``runs``."""
    summary = {}
    for name, first in runs[0].items():
        values = [run[name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"unit": first["unit"], "q1": q1, "median": median, "q3": q3}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", metavar="REV",
        help="also measure the committed files of REV, alternating with the working tree",
    )
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        workloads = [workload["name"] for workload in json.load(handle)["workloads"]]
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    host = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    trees = {ROOT: {"commit": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))}}

    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench-e2e-", dir=work) as exported:
        if args.against:
            commit = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
            _export(commit, exported)
            trees = {exported: {"commit": commit, "dirty": False}, **trees}
        runs: dict[str, dict[str, list]] = {tree: {w: [] for w in workloads} for tree in trees}
        order = list(trees)
        for i, (seed, workload) in enumerate(itertools.product(SEEDS, workloads)):
            for tree in order if i % 2 == 0 else order[::-1]:
                metrics = run_once(tree, workload, seed)
                runs[tree][workload].append(metrics)
                label = trees[tree]["commit"][:9] + ("+dirty" if trees[tree]["dirty"] else "")
                print(f"{label:15s} {workload:17s} seed {seed}: "
                      f"solve_s_p50 {metrics['solve_s_p50']['value']:.6g} s", flush=True)

    entries = [
        {
            **trees[tree], "date": date, "host": host, "seeds": list(SEEDS),
            "run_seconds": RUN_SECONDS,
            "workloads": {w: summarize(runs[tree][w]) for w in workloads},
        }
        for tree in trees
    ]
    history = []
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as handle:
            history = json.load(handle)
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(history + entries, handle, indent=2)
        handle.write("\n")
    print(f"appended {len(entries)} entr{'y' if len(entries) == 1 else 'ies'} to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
