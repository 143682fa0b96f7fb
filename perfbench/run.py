"""Benchmark entry point: one seeded workload through the public repro.apps API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs and SciPy
references are made here from ``--seed``; each measurement then runs in a
fresh worker process (``worker.py``), one client, closed loop, on the
serial scheduler:

- ``setup_s`` is the median over several fresh processes of ``import
  repro`` plus the warm-up solves, excluding input generation and
  references;
- ``--trace 0`` prints the end-to-end metrics of an untraced timed phase;
- ``--trace 1`` prints the per-layer metrics of a traced run (see
  ``tracing.py``) and writes its spans as Chrome trace-event JSON to
  ``.perfbench/trace-<workload>.json``.

Every time reported is scaled to the reference host speed by the
workload's calibration kernel (see ``calibration.py``); the unscaled
figures and the host speeds measured are printed above the result line.

Every solve is checked against its reference.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, if the program cannot
be imported or a worker fails.
"""

from __future__ import annotations

import os

if __name__ == "__main__" and hasattr(os, "sched_setaffinity"):
    # One CPU for this process and the workers it starts: the calibration
    # kernel, timed here, must run on the CPU the solves run on, because
    # the host's other tenants load its CPUs unevenly.  Native thread
    # pools get no more threads than that; both before NumPy loads.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(len(os.sched_getaffinity(0)))

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh processes whose set-up time is measured (the timed worker is one).
SETUP_REPEATS = 5

#: Wall-clock budget of one invocation; workers are killed past it.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "solve_s_p99": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment() -> dict[str, Any]:
    import scipy

    return {
        "cpus": os.cpu_count(),
        "pinned_to_cpus": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_worker(
    args: list[str], deadline: float, host: dict[str, calibration.Calibration]
) -> dict[str, Any]:
    """Run ``worker.py`` to completion; its JSON report.

    Times a calibration kernel from ``host`` whenever the worker asks for
    one, while the worker waits.  The worker is killed at ``deadline``.
    """
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    errors_path = os.path.join(WORK, f"worker-{os.getpid()}.err")
    lines = []
    expired = threading.Event()
    try:
        with open(errors_path, "w+", encoding="utf-8") as errors:
            with subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errors,
                text=True, cwd=ROOT,
            ) as proc:

                def expire() -> None:
                    expired.set()
                    proc.kill()

                watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), expire)
                watchdog.start()
                try:
                    for line in proc.stdout:
                        if not line.startswith(worker.CALIBRATE):
                            lines.append(line)
                            continue
                        measured = host[line[len(worker.CALIBRATE):].strip()].measure()
                        try:
                            proc.stdin.write(f"{measured!r}\n")
                            proc.stdin.flush()
                        except BrokenPipeError:
                            break  # the worker has ended; its exit code says why
                finally:
                    watchdog.cancel()
                    if proc.poll() is None:
                        proc.kill()
                returncode = proc.wait()
            errors.seek(0)
            stderr = errors.read()
    finally:
        if os.path.exists(errors_path):
            os.remove(errors_path)
    if expired.is_set():
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget")
    if returncode != 0:
        raise BenchError(f"worker exited {returncode}:\n{stderr.strip()}")
    if stderr:
        sys.stderr.write(stderr)
    return json.loads(lines[-1])


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: str
) -> tuple[dict[str, Any], dict[str, Any], list[dict[str, float]]]:
    """Inputs, set-up repeats and the main worker; (env, report, set-up reports)."""
    deadline = time.monotonic() + BUDGET_S
    env = environment()
    host = {kind: calibration.build(kind) for kind in ("setup", name)}
    payload = workloads.make_inputs(name, seed, scale)
    payload["metadata"] = {"workload": name, "seed": seed, "scale": scale, **env}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"inputs-{name}-{seed}-{os.getpid()}.pkl")
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    del payload
    try:
        setups = [
            run_worker(["--inputs", path, "--mode", "setup"], deadline, host)
            for _ in range(SETUP_REPEATS - 1)
        ]
        main_args = ["--inputs", path, "--mode", "run",
                     "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            main_args += ["--trace-out", os.path.join(WORK, f"trace-{name}.json")]
        report = run_worker(main_args, deadline, host)
    finally:
        os.remove(path)
    setups.append(report)
    return env, report, setups


def result_line(
    report: dict[str, Any], setups: list[dict[str, float]], trace: bool
) -> dict[str, Any]:
    """The final JSON object: correctness counts plus the metrics by name."""
    attempted, failed = report["solves"], report["failed"]
    if trace:
        values = report["layers"]
        units = PER_LAYER_UNITS
    else:
        values = {
            "solves_per_s": report["solves_per_s"],
            "solve_s_p50": report["solve_s_p50"],
            "solve_s_p99": report["solve_s_p99"],
            "setup_s": statistics.median(setup["setup_s"] for setup in setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "correct_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": unit}
            for key, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="SIMD2 reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="input sizes; 'smoke' is for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # On SIGTERM, unwind: the finally clauses stop the worker and remove
    # the inputs file.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        env, report, setups = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    except (BenchError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        why = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}: "
          f"{why[args.workload]}")
    line = result_line(report, setups, bool(args.trace))
    print(f"solves attempted {line['attempted']}, failed {line['failed']} "
          f"(failed_frac {line['failed'] / line['attempted']:.6f}); "
          f"setup_s samples {len(setups)}")
    if args.trace:
        print(f"traced solves {report['traced_solves']} (blocks alternating with "
              f"untraced solves of the same inputs)")
        if report["missing_targets"]:
            print("trace wrap targets missing: " + ", ".join(report["missing_targets"]))
    else:
        print(f"timed solves {report['solves']} over {report['timed_s']:.3f} s of solve "
              f"time, in slices of {worker.SLICE_S:g} s; solve_s_p99 is the "
              f"{report['tail_percentile']:.4g}th percentile (10 or more solves beyond it)")
        low, mid, high = report["host_speed"]
        raw_setup = statistics.median(setup["setup_raw_s"] for setup in setups)
        print(f"host speed vs reference: median {mid:.3f}, range {low:.3f}-{high:.3f}; "
              f"unscaled: solves_per_s {report['raw_solves_per_s']:.6g}, "
              f"solve_s_p50 {report['raw_solve_s_p50']:.6g}, setup_s {raw_setup:.6g}")
    for key, metric in line["metrics"].items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
