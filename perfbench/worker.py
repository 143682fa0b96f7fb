"""The measured process: set-up, then a timed or traced phase, one workload.

Started by ``run.py`` in a fresh interpreter, with the run's inputs in a
pickle that ``run.py`` wrote.  Prints one JSON object on stdout.  To
calibrate, it prints a request line and reads the time ``run.py``
measured from stdin (see ``calibration.py``).

``--mode setup`` times only the set-up: ``import repro`` plus one solve
of each warm-up input (lazy imports, first compiles, plan cache filled)
until the first timed solve may start.  Interpreter start and the NumPy
import that delivers the inputs come before the timer.  ``--mode run``
times the same set-up and then either

- ``--trace 0``: solves back to back for ``--seconds``, closed loop with
  one client, every solve checked against its reference, with the
  workload's calibration kernel timed between slices of solves (see
  ``calibration.py``); or
- ``--trace 1``: alternates blocks of untraced and traced solves of the
  same inputs for ``--seconds``, every solve checked, and reports
  per-layer metrics from the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pickle
import resource
import statistics
import sys
import time
from typing import Any, Callable

import numpy as np

import calibration
import workloads

Solve = Callable[[Any], "tuple[np.ndarray, ...]"]


def set_up(name: str, warmup: list[Any], stack: contextlib.ExitStack) -> tuple[Solve, float]:
    """Import the program and solve every warm-up input; returns the time."""
    start = time.perf_counter()
    solve = workloads.bind(name)
    from repro.runtime import use_context
    from repro.sched import SerialExecutor

    # One client on the serial scheduler, whatever the ambient default.
    stack.enter_context(use_context(scheduler=SerialExecutor()))
    for x in warmup:
        solve(x)
    return solve, time.perf_counter() - start


#: Prefix of the line that asks ``run.py`` to time a calibration kernel;
#: the kind follows, and the time comes back as one line on stdin.
CALIBRATE = "calibrate "


def calibrate(kind: str) -> float:
    """The time ``run.py`` measured for the calibration kernel of ``kind``."""
    print(CALIBRATE + kind, flush=True)
    return float(sys.stdin.readline())


def checked_solve(solve: Solve, x: Any, reference: tuple[np.ndarray, ...]) -> tuple[float, bool]:
    """One timed solve; an exception or a mismatch is a failure, not an abort."""
    start = time.perf_counter()
    try:
        outputs = solve(x)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        print(f"solve raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    return elapsed, workloads.matches(outputs, reference)


#: Length of one slice of solves: the calibration kernel runs after each
#: slice, so a slice's host speed is measured at most this far from it.
SLICE_S = 0.5


def timed_phase(
    solve: Solve,
    inputs: list[Any],
    references: list[Any],
    seconds: float,
    measure: Callable[[], float],
) -> tuple[list[tuple[float, bool, int]], int, list[float]]:
    """Solve back to back, cycling the inputs, until ``seconds`` have passed.

    Solves run in slices of at least ``SLICE_S`` and one solve; ``measure``
    times the calibration kernel before the first slice and after each.
    Returns ``(wall time, correct, slice)`` per solve, the number of
    failed solves and the calibration times.  None starts after the
    deadline.
    """
    solves: list[tuple[float, bool, int]] = []
    failed = 0
    calibrations = [measure()]
    begin = time.perf_counter()
    while not solves or time.perf_counter() - begin < seconds:
        slice_end = time.perf_counter() + SLICE_S
        while True:
            index = len(solves) % len(inputs)
            elapsed, ok = checked_solve(solve, inputs[index], references[index])
            solves.append((elapsed, ok, len(calibrations) - 1))
            failed += not ok
            if time.perf_counter() >= slice_end:
                break
        calibrations.append(measure())
    return solves, failed, calibrations


#: Calibrations on each side of a slice whose median gives its host
#: speed.  One calibration is noisy; over a few slices the host's speed
#: drifts less than that.
NEIGHBOURS = 2


def tail_percentile(samples: int) -> float:
    """99, or the highest percentile with at least 10 samples beyond it.

    Below 1000 samples the tail is not resolved; the percentile falls
    toward the median, and is the median from 20 samples down.
    """
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / samples)))


def summarize(
    solves: list[tuple[float, bool, int]],
    failed: int,
    calibrations: list[float],
    speed: Callable[[float], float],
) -> dict[str, Any]:
    """End-to-end figures of one timed phase, at the reference host speed.

    Each solve's wall time is scaled by ``speed`` of the median of the
    calibrations nearest its slice: ``NEIGHBOURS`` before it and as many
    after.  Throughput is correct solves per second of scaled solve time
    over the whole phase.
    """
    speeds = [
        speed(statistics.median(calibrations[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS]))
        for i in range(len(calibrations) - 1)
    ]
    raw = np.array([elapsed for elapsed, _, _ in solves])
    scaled = raw * np.array([speeds[i] for _, _, i in solves])
    correct = len(solves) - failed
    return {
        "solves": len(solves),
        "failed": failed,
        "timed_s": float(raw.sum()),
        "tail_percentile": tail_percentile(len(solves)),
        "solves_per_s": correct / float(scaled.sum()),
        "solve_s_p50": float(np.median(scaled)),
        "solve_s_p99": float(np.percentile(scaled, tail_percentile(len(solves)))),
        "raw_solves_per_s": correct / float(raw.sum()),
        "raw_solve_s_p50": float(np.median(raw)),
        "host_speed": [min(speeds), statistics.median(speeds), max(speeds)],
    }


#: Length of one untraced block in the traced run.  Each block is followed
#: by a traced block over the same inputs; installing the wrappers once
#: per block, not per solve, keeps the re-patching cost out of sub-ms
#: solves.
BLOCK_S = 0.5


def traced_phase(
    solve: Solve,
    inputs: list[Any],
    references: list[Any],
    seconds: float,
    trace_out: str | None,
    metadata: dict[str, Any],
) -> dict[str, Any]:
    """Alternate untraced and traced blocks; per-layer metrics of the traced."""
    from tracing import Tracer

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        block: list[int] = []
        block_end = time.perf_counter() + BLOCK_S
        while not block or time.perf_counter() < block_end:
            index = len(untraced) % len(inputs)
            elapsed, ok = checked_solve(solve, inputs[index], references[index])
            untraced.append(elapsed)
            failed += not ok
            block.append(index)
        with tracer.installed():
            for index in block:
                tracer.solve = len(traced)
                elapsed, ok = checked_solve(solve, inputs[index], references[index])
                traced.append(elapsed)
                failed += not ok
    if trace_out:
        tracer.write_chrome_trace(trace_out, metadata)
    return {
        "solves": len(untraced) + len(traced),
        "failed": failed,
        "traced_solves": len(traced),
        "missing_targets": tracer.missing,
        "layers": tracer.metrics(len(traced), sum(traced), sum(untraced)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    with open(args.inputs, "rb") as handle:
        payload = pickle.load(handle)
    name = payload["workload"]
    with contextlib.ExitStack() as stack:
        solve, setup_raw_s = set_up(name, payload["warmup"], stack)
        setup_s = setup_raw_s * calibration.speed("setup", calibrate("setup"))
        report: dict[str, Any] = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        if args.mode == "run":
            inputs, references = payload["inputs"], payload["references"]
            if args.trace:
                report.update(traced_phase(
                    solve, inputs, references, args.seconds,
                    args.trace_out, payload["metadata"],
                ))
            else:
                solves, failed, calibrations = timed_phase(
                    solve, inputs, references, args.seconds,
                    functools.partial(calibrate, name),
                )
                report.update(summarize(
                    solves, failed, calibrations, functools.partial(calibration.speed, name)
                ))
                # ru_maxrss is in KiB on Linux.
                usage = resource.getrusage(resource.RUSAGE_SELF)
                report["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
