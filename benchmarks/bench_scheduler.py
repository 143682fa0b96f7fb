"""Scheduler health check: graph overhead, bit-identity, threaded speedup.

Standalone script (not a pytest benchmark), wired to ``make check-scheduler``
and CI.  Three gates:

1. **Graph overhead** — lowering a *single-launch* mmo onto a LaunchGraph
   and running it through the serial scheduler (the default path every
   entry point now takes) must stay within 5 % of the pre-graph dispatch
   on a 512² mmo.  The scheduler refactor is supposed to be free for the
   loops it replaced; this keeps it that way.
2. **Bit-identity** — a banded min-plus closure iteration under the
   4-worker :class:`~repro.sched.ThreadPoolExecutor` must be *byte*
   identical to the serial run (dtype included).  Runs unconditionally,
   at a size every machine can afford.
3. **Threaded speedup** — a 2048² min-plus closure iteration split into
   ``w = min(4, CPUs available)`` row bands must run at least
   ``1 + 0.8·(w − 1)/3`` times faster on ``w`` workers than serially
   (min of ``SPEEDUP_REPEATS`` interleaved pairs each): 1.8× on 4 CPUs,
   1.27× on 2.  Skipped (and recorded as skipped in the
   artifact) only on one CPU, where there is no parallelism to show.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py
    PYTHONPATH=src python benchmarks/bench_scheduler.py \
        --out benchmarks/results/scheduler.json         # artifact
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro.backends import list_backends
from repro.core import SEMIRINGS
from repro.runtime import mmo_tiled, use_context
from repro.runtime.closure import closure
from repro.runtime.kernels import mmo_tiled_split_k
from repro.sched import ThreadPoolExecutor

from interleaved import interleaved_mins

DISPATCH_N = 512
DISPATCH_REPEATS = 5
TINY_REPEATS = 300
MAX_OVERHEAD_RATIO = 1.05

SPEEDUP_N = 2048
#: Most workers (and bands) the speedup gate uses, and its floor there.
SPEEDUP_WORKERS = 4
MIN_SPEEDUP = 1.8
#: Interleaved serial/threaded pairs the speedup is the min-of.  Two read
#: anywhere from 1.24x to 2.16x on a 2-CPU host; one slow pair must not
#: decide the gate.
SPEEDUP_REPEATS = 5
IDENTITY_N = 512
IDENTITY_BANDS = 4


def _operands(ring, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    if ring.is_boolean():
        return rng.random((m, k)) < 0.4, rng.random((k, n)) < 0.4
    # [0.5, 8.5): continuous (fold order matters) and never colliding
    # with any ring's ⊕ identity, so banding changes nothing silently.
    return rng.uniform(0.5, 8.5, (m, k)), rng.uniform(0.5, 8.5, (k, n))


def _adjacency(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    adj = rng.uniform(1.0, 9.0, (n, n))
    adj[rng.random((n, n)) < 0.5] = np.inf
    np.fill_diagonal(adj, 0.0)
    return adj


def graph_overhead(records: list[dict]) -> None:
    """Single-launch graph cost over direct dispatch on a 512² mmo.

    Building a GraphBuilder, appending the launch, and running it
    through the serial scheduler is a per-call cost of tens of µs,
    independent of operand size; a 512² kernel runs for hundreds of ms
    with several percent of machine noise.  So, as in
    ``bench_dispatch.py``: isolate the per-call overhead on a 16² mmo
    (min-of-many is stable to sub-µs), then hold it against the measured
    512² kernel — the graph path must price in at ≤ 5 % of the kernel it
    orchestrates.
    """
    ring = SEMIRINGS["plus-mul"]

    # (1) Per-call graph overhead, measured where it is measurable.
    # splits=1 lowers to a one-launch graph: build + schedule, nothing to
    # fold — the minimal scheduler round trip.
    ta, tb = _operands(ring, 16, 16, 16, seed=5)
    mmo_tiled("plus-mul", ta, tb)  # warm lazy imports
    mmo_tiled_split_k("plus-mul", ta, tb, splits=1)
    tiny_direct, tiny_graph = interleaved_mins(
        lambda: mmo_tiled("plus-mul", ta, tb),
        lambda: mmo_tiled_split_k("plus-mul", ta, tb, splits=1),
        TINY_REPEATS,
    )
    overhead = max(0.0, tiny_graph - tiny_direct)

    # (2) The kernel the overhead budget is expressed against.
    n = DISPATCH_N
    a, b = _operands(ring, n, n, n, seed=17)
    direct, graphed = interleaved_mins(
        lambda: mmo_tiled("plus-mul", a, b),
        lambda: mmo_tiled_split_k("plus-mul", a, b, splits=1),
        DISPATCH_REPEATS,
    )
    ratio = (direct + overhead) / direct
    records.append(
        {
            "case": "graph_overhead", "n": n,
            "tiny_direct_seconds": tiny_direct,
            "tiny_graph_seconds": tiny_graph,
            "overhead_seconds_per_call": overhead,
            "direct_seconds": direct, "graph_seconds": graphed,
            "ratio": round(ratio, 6), "max_ratio": MAX_OVERHEAD_RATIO,
        }
    )
    print(f"graph   per-call overhead {overhead * 1e6:6.1f}us  "
          f"(tiny {tiny_direct * 1e6:.1f}us -> {tiny_graph * 1e6:.1f}us)")
    print(f"graph   {n}²  direct {direct * 1e3:7.2f}ms  "
          f"graph {graphed * 1e3:7.2f}ms  overhead ratio {ratio:.6f}")
    if ratio > MAX_OVERHEAD_RATIO:
        raise SystemExit(
            f"graph overhead {ratio:.3f}x exceeds the "
            f"{MAX_OVERHEAD_RATIO}x budget"
        )


def _one_closure_iteration(adj: np.ndarray, scheduler, bands: int) -> np.ndarray:
    with use_context(scheduler=scheduler) as ctx:
        return closure(
            "min-plus", adj, bands=bands, max_iterations=1,
            convergence_check=False, context=ctx,
        ).matrix


def _cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def banded_identity(records: list[dict]) -> None:
    """Threaded banded closure == serial, byte for byte.  Always runs."""
    adj = _adjacency(IDENTITY_N, seed=3)
    serial = _one_closure_iteration(adj, None, IDENTITY_BANDS)
    threaded = _one_closure_iteration(
        adj, ThreadPoolExecutor(max_workers=SPEEDUP_WORKERS), IDENTITY_BANDS
    )
    identical = (
        serial.dtype == threaded.dtype
        and bool(np.array_equal(serial, threaded, equal_nan=True))
    )
    records.append(
        {
            "case": "banded_identity", "n": IDENTITY_N,
            "bands": IDENTITY_BANDS, "workers": SPEEDUP_WORKERS,
            "identical": identical,
        }
    )
    print(f"identity {IDENTITY_N}² bands={IDENTITY_BANDS} "
          f"workers={SPEEDUP_WORKERS}  identical={identical}")
    if not identical:
        raise SystemExit(
            "identity: threaded banded closure diverged from serial — "
            "the scheduler must be bit-identical on every graph"
        )


def threaded_speedup(records: list[dict]) -> None:
    """w-band 2048² min-plus closure: w workers vs serial, w = min(4, CPUs).

    The row bands are independent launches over GIL-releasing NumPy
    kernels, so a w-worker pool on w cores must show real parallelism:
    the floor scales from 1.8× at 4 workers down to 1.27× at 2.  One CPU
    cannot express any — the gate is recorded as skipped there.
    """
    cpus = _cpus()
    workers = min(SPEEDUP_WORKERS, cpus)
    floor = round(1 + (MIN_SPEEDUP - 1) * (workers - 1) / (SPEEDUP_WORKERS - 1), 6)
    record = {
        "case": "threaded_speedup", "n": SPEEDUP_N,
        "bands": workers, "workers": workers, "cpu_count": cpus,
        "min_speedup": floor,
    }
    if workers < 2:
        records.append({**record, "skipped": True})
        print(f"speedup {SPEEDUP_N}²  SKIPPED (1 CPU: no parallelism to show)")
        return

    adj = _adjacency(SPEEDUP_N, seed=7)
    threaded_pool = ThreadPoolExecutor(max_workers=workers)
    # Warm at a smaller size: lazy imports, compile path, pool spin-up.
    warm = _adjacency(256, seed=1)
    _one_closure_iteration(warm, None, workers)
    _one_closure_iteration(warm, threaded_pool, workers)

    serial, threaded = interleaved_mins(
        lambda: _one_closure_iteration(adj, None, workers),
        lambda: _one_closure_iteration(adj, threaded_pool, workers),
        SPEEDUP_REPEATS,
    )
    speedup = serial / threaded
    records.append(
        {
            **record, "skipped": False, "repeats": SPEEDUP_REPEATS,
            "serial_seconds": serial, "threaded_seconds": threaded,
            "speedup": round(speedup, 6),
        }
    )
    print(f"speedup {SPEEDUP_N}² bands={workers} workers={workers}  "
          f"serial {serial:6.2f}s  threaded {threaded:6.2f}s  "
          f"speedup {speedup:.2f}x (need >= {floor}x)")
    if speedup < floor:
        raise SystemExit(
            f"speedup {speedup:.2f}x below the {floor}x floor on "
            f"{workers} workers — banded launches are not running concurrently"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    graph_overhead(records)
    banded_identity(records)
    threaded_speedup(records)

    artifact = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": list(list_backends()),
        "records": records,
    }
    payload = json.dumps(artifact, indent=2)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
