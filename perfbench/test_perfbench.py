"""Self-tests of the benchmark, at smoke size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibration  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(calibration.KINDS) == {"setup", *workloads.WORKLOADS}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_corrupted_or_raising_solves_are_counted_as_failed():
    payload = workloads.make_inputs("apsp_small_batch", 5, "smoke")
    solve = workloads.bind("apsp_small_batch")
    inputs, references = payload["inputs"], payload["references"]

    def corrupted(adjacency):
        (distances,) = solve(adjacency)
        distances = distances.copy()
        distances[0, 0] = 1.0  # the diagonal distance is 0
        return (distances,)

    def raising(adjacency):
        raise RuntimeError("injected")

    def measure():
        return 1.0

    def speed(measured):
        return 1.0 / measured

    setups = [{"setup_s": 0.1, "setup_raw_s": 0.1}]
    for bad in (corrupted, raising):
        solves, failed, calibrations = worker.timed_phase(bad, inputs, references, 0.2, measure)
        assert failed == len(solves) >= 1
        report = {**worker.summarize(solves, failed, calibrations, speed), "peak_rss_mb": 1.0}
        line = run.result_line(report, setups, trace=False)
        assert line["correct"] is False
        assert line["failed"] == line["attempted"] == len(solves)
        assert line["metrics"]["correct_frac"]["value"] == 0.0

    solves, failed, calibrations = worker.timed_phase(solve, inputs, references, 0.2, measure)
    assert failed == 0 and len(solves) >= 1
    assert len(calibrations) == solves[-1][2] + 2  # one before each slice, one after the last


def test_times_are_scaled_by_the_host_speed_around_their_slice():
    # Four slices of one 1-s solve each.  The calibration kernel takes 1 s
    # until the third slice and 3 s from then on, so the median of the
    # four calibrations around each slice puts the host at the reference
    # speed for the first two slices, at half of it for the third and at
    # a third of it for the last.
    solves = [(1.0, True, i) for i in range(4)]
    report = worker.summarize(solves, 0, [1.0, 1.0, 1.0, 3.0, 3.0], lambda measured: 1.0 / measured)
    assert report["host_speed"] == [1 / 3, 0.75, 1.0]
    assert report["solve_s_p50"] == 0.75
    assert report["solves_per_s"] == 4 / (2.5 + 1 / 3)
    assert report["raw_solves_per_s"] == 1.0
    assert report["tail_percentile"] == 50.0  # four samples resolve no tail


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert worker.tail_percentile(20000) == 99.0
    assert worker.tail_percentile(1000) == 99.0
    assert worker.tail_percentile(200) == 95.0
    assert worker.tail_percentile(5) == 50.0


def test_calibration_kernels_run_without_the_program():
    code = (
        "import sys, calibration\n"
        "for kind in calibration.KINDS:\n"
        "    assert calibration.speed(kind, calibration.build(kind).measure()) > 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=HERE, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_solves_equal_untraced_solves(workload):
    import repro.core.ops

    payload = workloads.make_inputs(workload, 7, "smoke")
    solve = workloads.bind(workload)
    kernel = repro.core.ops.mmo
    tracer = Tracer()
    for x, reference in list(zip(payload["inputs"], payload["references"]))[:4]:
        plain = solve(x)
        with tracer.installed():
            traced = solve(x)
        assert workloads.matches(plain, reference)
        assert all(np.array_equal(a, b) for a, b in zip(plain, traced))
    assert repro.core.ops.mmo is kernel  # every wrapper was removed again
    assert tracer.missing == []
    assert tracer.spans and None not in tracer.spans
    layers, _ = tracer.self_times()
    assert layers["apps"] > 0 and layers["runtime"] > 0


def test_chrome_trace_export(tmp_path):
    payload = workloads.make_inputs("gtc_auto_sparse", 2, "smoke")
    solve = workloads.bind("gtc_auto_sparse")
    tracer = Tracer()
    with tracer.installed():
        solve(payload["inputs"][0])
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path), {"workload": "gtc_auto_sparse"})
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(tracer.spans)
    assert {e["cat"] for e in events} >= {"apps", "runtime", "plan", "sparse", "core"}
    roots = [e for e in events if e["args"]["parent"] == -1]
    assert [e["name"] for e in roots] == ["repro.apps.gtc_simd2"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "apsp_small_batch", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
