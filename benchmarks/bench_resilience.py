"""Resilience health check: fault-recovery proof plus checksum overhead.

Standalone script (not a pytest benchmark), wired to ``make
check-resilience`` and CI.  Three gates:

1. **Injected-fault recovery (end to end)** — a seeded
   :class:`~repro.resilience.FaultPlan` corrupts output tiles *and* kills
   a device under a checked multi-device min-plus closure.  Every
   injected corruption must be detected (zero false negatives), the run
   must recover via retry + repartition, and the final matrix must be
   **bit-identical** to the fault-free run, with the detection/recovery
   events visible on the trace.
2. **Zero false positives** — the identical closure with no fault plan
   must finish with no detections and no recovery events.
3. **Checksum overhead** — the ABFT-checked closure must stay under
   ``1.3x`` the unchecked closure on a 512² min-plus closure (vectorized
   backend).  The checksums are O(n²) folds around an O(n³) launch; this
   gate keeps them that way.  The gate reads the median of per-repeat
   ratios, each from one back-to-back pair (:func:`paired_ratios`); the
   ratio of the two arms' minima over the same repeats is recorded beside
   it, but a rare fast repeat of either arm decides that one.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py
    PYTHONPATH=src python benchmarks/bench_resilience.py \
        --out benchmarks/results/resilience.json        # artifact
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.hw import Simd2Device
from repro.resilience import FaultPlan, FaultSpec, resilient_closure
from repro.runtime import Trace, closure, use_context

from interleaved import paired_ratios

E2E_N = 64
E2E_DEVICES = 3
E2E_MAX_ITERATIONS = 30

OVERHEAD_N = 512
OVERHEAD_ITERATIONS = 4
OVERHEAD_REPEATS = 3
MAX_OVERHEAD_RATIO = 1.3


def _graph(n: int, seed: int) -> np.ndarray:
    """A random sparse digraph, min-plus encoded (inf = no edge)."""
    rng = np.random.default_rng(seed)
    adj = np.full((n, n), np.inf, dtype=np.float32)
    edges = rng.integers(0, n, (4 * n, 2))
    adj[edges[:, 0], edges[:, 1]] = rng.integers(1, 9, 4 * n).astype(np.float32)
    np.fill_diagonal(adj, 0.0)
    return adj


def fault_recovery(records: list[dict]) -> None:
    """Gates 1+2: seeded faults detected and recovered bit-for-bit."""
    adj = _graph(E2E_N, seed=7)
    reference = closure(
        "min-plus", adj, backend="emulate", max_iterations=E2E_MAX_ITERATIONS
    )

    # -- clean checked run: zero false positives ------------------------
    clean_trace = Trace()
    with use_context(backend="emulate", trace=clean_trace) as ctx:
        clean = resilient_closure(
            "min-plus", adj,
            devices=[Simd2Device() for _ in range(E2E_DEVICES)],
            context=ctx, max_iterations=E2E_MAX_ITERATIONS,
        )
    clean_summary = clean_trace.summary()
    if not np.array_equal(clean.matrix, reference.matrix):
        raise SystemExit("clean checked closure diverged from the reference")
    if clean_summary.resilience_events != 0:
        raise SystemExit(
            f"false positives: clean run produced "
            f"{dict(clean_summary.by_event)}"
        )
    print(f"clean   {E2E_N}² x{E2E_DEVICES}dev  parity ok, "
          f"0 resilience events ({clean.iterations} iterations)")

    # -- faulty checked run: corrupt two launches, kill one device ------
    plan = FaultPlan(
        seed=11,
        corrupt={
            1: FaultSpec(kind="nan"),                       # point poison
            3: FaultSpec(kind="stuck", value=-1e6),         # stuck tile
        },
        fail_devices=(0,),
    )
    trace = Trace()
    with use_context(backend="emulate", fault_plan=plan, trace=trace) as ctx:
        recovered = resilient_closure(
            "min-plus", adj,
            devices=[Simd2Device() for _ in range(E2E_DEVICES)],
            context=ctx, max_iterations=E2E_MAX_ITERATIONS,
        )
    summary = trace.summary()

    if plan.injected_corruptions < 1 or plan.injected_device_failures < 1:
        raise SystemExit(
            f"fault plan under-delivered: {plan.injected_corruptions} "
            f"corruptions, {plan.injected_device_failures} device kills"
        )
    if summary.corruptions_detected != plan.injected_corruptions:
        raise SystemExit(
            f"false negatives: {plan.injected_corruptions} corruptions "
            f"injected, {summary.corruptions_detected} detected"
        )
    if summary.device_failures != 1 or summary.repartitions != 1:
        raise SystemExit(
            f"expected 1 device failure + 1 repartition, got "
            f"{dict(summary.by_event)}"
        )
    if summary.retries < plan.injected_corruptions:
        raise SystemExit(
            f"expected >= {plan.injected_corruptions} retries, got "
            f"{summary.retries}"
        )
    if not np.array_equal(recovered.matrix, reference.matrix):
        raise SystemExit("recovered closure is not bit-identical to fault-free")
    if recovered.blacklist != frozenset({0}):
        raise SystemExit(f"expected blacklist {{0}}, got {recovered.blacklist}")
    print(f"faulty  {E2E_N}² x{E2E_DEVICES}dev  recovered bit-identical: "
          f"{dict(summary.by_event)}")
    records.append(
        {
            "case": "fault_recovery", "n": E2E_N, "devices": E2E_DEVICES,
            "injected_corruptions": plan.injected_corruptions,
            "injected_device_failures": plan.injected_device_failures,
            "detected_corruptions": summary.corruptions_detected,
            "retries": summary.retries,
            "device_failures": summary.device_failures,
            "repartitions": summary.repartitions,
            "clean_run_events": clean_summary.resilience_events,
            "bit_identical": True,
            "blacklist": sorted(recovered.blacklist),
            "iterations": recovered.iterations,
        }
    )


def checksum_overhead(records: list[dict]) -> None:
    """Gate 3: ABFT-checked closure within 1.3x of unchecked, 512²."""
    adj = _graph(OVERHEAD_N, seed=3)

    def unchecked() -> None:
        closure(
            "min-plus", adj, backend="vectorized",
            max_iterations=OVERHEAD_ITERATIONS, convergence_check=False,
        )

    def checked() -> None:
        resilient_closure(
            "min-plus", adj, backend="vectorized",
            max_iterations=OVERHEAD_ITERATIONS, convergence_check=False,
            checked=True, watchdog=True,
        )

    unchecked()  # warm lazy imports before timing
    checked()
    ratios, (best_plain, best_checked) = paired_ratios(
        unchecked, checked, OVERHEAD_REPEATS
    )
    ratio = statistics.median(ratios)
    min_ratio = best_checked / best_plain
    records.append(
        {
            "case": "checksum_overhead", "n": OVERHEAD_N,
            "iterations": OVERHEAD_ITERATIONS,
            "unchecked_seconds": best_plain,
            "checked_seconds": best_checked,
            "paired_ratios": [round(r, 6) for r in ratios],
            "ratio": round(ratio, 6),
            "ratio_of_mins": round(min_ratio, 6),
            "max_ratio": MAX_OVERHEAD_RATIO,
        }
    )
    print(f"overhead {OVERHEAD_N}² x{OVERHEAD_ITERATIONS}iter  "
          f"unchecked {best_plain * 1e3:7.1f}ms  "
          f"checked {best_checked * 1e3:7.1f}ms  "
          f"median paired ratio {ratio:.3f}  ratio of mins {min_ratio:.3f}")
    if ratio > MAX_OVERHEAD_RATIO:
        raise SystemExit(
            f"checksum overhead {ratio:.3f}x (median of paired ratios) "
            f"exceeds the {MAX_OVERHEAD_RATIO}x budget"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    fault_recovery(records)
    checksum_overhead(records)

    artifact = {
        "python": platform.python_version(),
        "numpy": np.__version__,
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
