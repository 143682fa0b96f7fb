"""Adaptive dispatch vs the best static backend over the Fig-14 grid.

Standalone script (not a pytest benchmark), wired to ``make check-autotune``
and CI.  Sweeps min-plus launches over the paper's Figure 14 density grid
(plus each size's modelled crossover density) and gates two promises of
the planning stage:

1. **Never worse than 1.05x** — at every grid point, ``backend="auto"``
   starting from a *cold* :class:`~repro.plan.autotune.AutotuneTable`
   must finish within ``MAX_AUTO_RATIO`` of the best static backend
   (plus the fixed :data:`ABS_NOISE_FLOOR_S` allowance).
   Both sides are measured as the *second-best* of ``REPEATS`` tightly
   interleaved warm-paired runs: the trim discards a single outlier
   sample in either direction (one scheduling burst, or one
   anomalously fast run) that a raw min would let decide the gate.
   The repeats share the point's table, so the estimate reflects
   warmed-up choices; the probe repeats that buy observations of the
   runner-up are absorbed by the trim.
2. **The warm table moves a decision** — at one or more crossover-region
   points the choice sequence over repeats must not be constant: the
   observations accumulated across repeats (including the model-tie
   probe) must change which backend the planner picks at least once.

Grid floors: per-launch adaptive overhead (density estimation, plan
lookup, plan-record emission, observation record) is ~90µs on this
substrate, and single-core scheduling noise adds a further ~100–200µs of
irreducible per-sample jitter, so every point's fastest kernel must run
≳5ms for a 5% gate to measure dispatch quality rather than the
substrate's timer — that is why n=128 is absent and the sparsest Fig-14
density (0.001) appears only at n=384.

Usage::

    PYTHONPATH=src python benchmarks/bench_autotune.py
    PYTHONPATH=src python benchmarks/bench_autotune.py \
        --out benchmarks/results/autotune.json          # artifact
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.backends import capable_backends
from repro.plan import AutotuneTable, crossover_density
from repro.runtime import ExecutionContext, Trace, mmo_tiled
from repro.sparse import estimate_density
from repro.timing.backend_cost import LaunchSpec, estimate

RING = "min-plus"
REPEATS = 12  # a multiple of both possible arm counts (2 and 3)
MAX_AUTO_RATIO = 1.05

#: Absolute allowance added to the ratio budget, covering the fixed
#: ~90µs adaptive dispatch overhead plus the substrate's per-sample
#: timer jitter (tightly-interleaved identical kernels still differ by
#: 100–200µs between runs on this single-core host).  Negligible at the
#: grid's large points (0.2% of a 140ms launch); at the smallest (~4ms)
#: points it keeps the gate a test of the planner rather than of the
#: host's clock stability.
ABS_NOISE_FLOOR_S = 250e-6

#: A static arm is only *timed* at a grid point when its model price is
#: within this factor of the cheapest static model price there.  The gate
#: compares auto against the best static, and a backend the model prices
#: 3x out (far beyond the model's ~1.35x residual band) cannot be it —
#: timing it anyway just stretches the point's measurement window (the
#: sparse arm at dense 256³ runs ~20x longer than the winner), giving
#: single-core scheduling drift more room to skew the fast arms.
CONTENDER_BAND = 3.0

#: The static arms auto is gated against: the two sides of the Fig-14
#: crossover.  The emulate backend (an instruction-level emulator kept
#: for dynamic statistics, ~100x slower) is never the best static choice,
#: and timing it between the fast arms only adds cache interference.
STATIC_ARMS = ("vectorized", "sparse")

#: (n, densities): the Fig-14 sparsity grid (s ∈ {0.999, 0.99, 0.9, 0.7}
#: → d ∈ {0.001, 0.01, 0.1, 0.3}) plus fully dense, floored per size so
#: every point's *fastest* kernel runs ≳5ms (see the module docstring),
#: and each size's modelled crossover density spliced in below.  The full
#: Fig-14 density set appears at n=384; smaller sizes carry the subset
#: their kernels can support.
GRID: dict[int, list[float]] = {
    192: [0.01, 0.1, 0.3, 1.0],
    256: [0.005, 0.01, 0.1, 0.3, 1.0],
    384: [0.001, 0.01, 0.1, 0.3, 1.0],
}


def _operands(n: int, density: float, seed: int) -> np.ndarray:
    """One min-plus operand: explicit entries at ``density``, ⊕-identity
    (``+inf``) elsewhere."""
    rng = np.random.default_rng(seed)
    explicit = rng.uniform(0.5, 8.5, (n, n))
    if density >= 1.0:
        return explicit
    return np.where(rng.random((n, n)) < density, explicit, np.inf)


def _static_backends() -> list[str]:
    """The timed static arms, capability-checked against the ring."""
    capable = set(capable_backends(RING))
    missing = [name for name in STATIC_ARMS if name not in capable]
    if missing:
        raise SystemExit(f"static arm(s) not capable of {RING}: {missing}")
    return list(STATIC_ARMS)


def sweep_point(n: int, density: float, statics: list[str]) -> dict:
    """One grid point: timed auto repeats (shared cold table) vs statics."""
    a = _operands(n, density, seed=round(1000 * density) * 7 + n)
    table = AutotuneTable()
    trace = Trace()
    ctx = ExecutionContext(backend="auto", autotune=table, trace=trace)

    # Only model-plausible contenders are timed (see CONTENDER_BAND).
    est = estimate_density(a, RING)
    spec = LaunchSpec(RING, n, n, n, density_a=est, density_b=est)
    model = {name: estimate(name, spec) for name in statics}
    floor = min(model.values())
    contenders = [s for s in statics if model[s] <= CONTENDER_BAND * floor]

    # Tight rotated interleave with warm pairs: every repeat visits each
    # arm once (order rotated by the repeat index so every arm occupies
    # every slot equally often), and each visit runs the arm twice back
    # to back, timing only the second run.  The untimed first run makes
    # every timed run's predecessor *its own kernel* — without it, the
    # static dense arm keeps inheriting warm caches from auto (which runs
    # the same kernel) while auto inherits the sparse arm's trashed ones,
    # a systematic ~10% bias no amount of repeats averages away.  On a
    # single-core host the residual noise is bursty; adjacent arms are
    # taxed alike and min-of-REPEATS discards the bursts.
    static_ctx = {name: ExecutionContext(backend=name) for name in contenders}
    for sctx in static_ctx.values():  # warm lazy imports / NumPy dispatch
        mmo_tiled(RING, a, a, context=sctx)
    arms: list[tuple[str, ExecutionContext]] = [("auto", ctx)]
    arms += list(static_ctx.items())
    times: dict[str, list[float]] = {name: [] for name, _ in arms}
    for repeat in range(REPEATS):
        offset = repeat % len(arms)
        for name, actx in arms[offset:] + arms[:offset]:
            mmo_tiled(RING, a, a, context=actx)
            t0 = time.perf_counter()
            mmo_tiled(RING, a, a, context=actx)
            times[name].append(time.perf_counter() - t0)
    auto_times = times.pop("auto")
    static_times = times

    choices = [p.backend for p in trace.plans]
    probes = [p.probe for p in trace.plans]

    def trimmed_best(samples: list[float]) -> float:
        """Second-best sample: one outlier in either direction is free."""
        return sorted(samples)[1]

    static_best = {
        name: trimmed_best(times) for name, times in static_times.items()
    }
    best_static_name = min(static_best, key=static_best.get)
    best_static = static_best[best_static_name]
    auto_best = trimmed_best(auto_times)
    return {
        "n": n,
        "density": density,
        "estimated_density": est,
        "contenders": contenders,
        "auto_seconds": auto_best,
        "auto_repeat_seconds": auto_times,
        "auto_choices": choices,
        "auto_probes": probes,
        "cold_choice": choices[0],
        "warm_choice": choices[-1],
        "warm_shifted": len(set(choices)) > 1,
        "static_seconds": static_best,
        "static_repeat_seconds": static_times,
        "best_static": best_static_name,
        "ratio": round(auto_best / best_static, 6),
        "table_buckets": len(table),
        "table": table.to_json(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    args = parser.parse_args(argv)

    statics = _static_backends()
    points: list[dict] = []
    failures: list[str] = []
    for n, densities in GRID.items():
        crossover = round(crossover_density(n, ring=RING), 4)
        for density in sorted(set(densities + [crossover])):
            if density <= 0.0:
                continue  # no modelled crossover at this size
            point = sweep_point(n, density, statics)
            points.append(point)
            flag = " *" if point["warm_shifted"] else ""
            print(
                f"n={n:4d} d={density:7.4f}  auto {point['auto_seconds'] * 1e3:8.3f}ms"
                f" ({point['warm_choice']:10s})  best static"
                f" {min(point['static_seconds'].values()) * 1e3:8.3f}ms"
                f" ({point['best_static']:10s})  ratio {point['ratio']:.3f}{flag}"
            )
            budget = (
                MAX_AUTO_RATIO * min(point["static_seconds"].values())
                + ABS_NOISE_FLOOR_S
            )
            if point["auto_seconds"] > budget:
                failures.append(
                    f"n={n} d={density}: auto at {point['ratio']:.3f}x of "
                    f"{point['best_static']} (> {MAX_AUTO_RATIO}x "
                    f"+ {ABS_NOISE_FLOOR_S * 1e6:.0f}µs)"
                )

    shifted = [
        {"n": p["n"], "density": p["density"], "choices": p["auto_choices"]}
        for p in points
        if p["warm_shifted"]
    ]
    artifact = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ring": RING,
        "repeats": REPEATS,
        "max_auto_ratio": MAX_AUTO_RATIO,
        "abs_noise_floor_s": ABS_NOISE_FLOOR_S,
        "static_backends": statics,
        "crossovers": {
            str(n): round(crossover_density(n, ring=RING), 6) for n in GRID
        },
        "warm_shifts": shifted,
        "points": points,
    }
    payload = json.dumps(artifact, indent=2)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)

    if failures:
        raise SystemExit(
            "auto exceeded the static-backend budget:\n  " + "\n  ".join(failures)
        )
    if not shifted:
        raise SystemExit(
            "warm autotune table never shifted a choice — expected at least "
            "one crossover-region point to re-decide after observations"
        )
    print(
        f"all {len(points)} points within {MAX_AUTO_RATIO}x; "
        f"{len(shifted)} warm shift(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
