#!/usr/bin/env python
"""Fit the planner's backend prices to a measured sweep.

    PYTHONPATH=src python tools/fit_backend_cost.py            # fit the committed sweep
    PYTHONPATH=src python tools/fit_backend_cost.py --measure  # re-measure it first
    PYTHONPATH=src python tools/fit_backend_cost.py --measure --ring or-and --backend vectorized

``--measure`` times the launches of :func:`sweep` and writes them to
``tools/backend_cost_sweep.json``: all nine rings on ``vectorized`` at
square sizes 16–1024 and at blocked closure's rank-64 update (n×64×n) and
row panel (64×64×n); the six rings whose ⊕ identity absorbs ⊗ on
``sparse`` at densities 0.001–1.0, up to ``MAX_SPARSE_PRODUCTS`` expected
⊗ products a launch; and every ring on ``emulate`` at shapes up to 64.
A ring whose ``vectorized`` price depends on density (or-and's packed
loop) is also timed there at the sparse sweep's sizes and densities.
Every launch has an accumulator, as a closure's launches do.  With
``--ring`` or ``--backend`` only those launches are re-measured, and the
sweep keeps every other record as it was.  Each time is
the least ``impl.execute`` wall time (``Trace.records[i].wall_time_s``,
the time the autotune table records) of 2–9 runs after an untimed one,
through ``mmo_tiled`` under a static backend.  It takes about 3 minutes on
a 2-CPU host.

The fit reads the sweep, solves one non-negative least-squares problem
per backend and ring over the terms of
:func:`repro.timing.backend_cost.terms`, each row divided by its measured
time so that the fit minimises relative error, and writes the
coefficients, rounded to four significant digits, to
``src/repro/timing/backend_cost_fit.py``.  It then prints how far the
model sits from the sweep: per backend the largest factor between a
modelled and a measured time, and the largest factor by which the backend
the model picks at a point was measured slower than the fastest there,
which must stay within the planner's ``MODEL_ERROR_BAND``.
"""

from __future__ import annotations

import argparse
import collections
import datetime
import json
import os
import platform
import sys
import time
from typing import Iterable, Iterator

import numpy as np
import scipy
from scipy.optimize import nnls

from repro.backends import capable_backends
from repro.core.registry import SEMIRINGS, get_semiring
from repro.plan import MODEL_ERROR_BAND
from repro.runtime import ExecutionContext, Trace, mmo_tiled
from repro.timing.backend_cost import TERMS, LaunchSpec, estimate, terms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP = os.path.join(ROOT, "tools", "backend_cost_sweep.json")
MODULE = os.path.join(ROOT, "src", "repro", "timing", "backend_cost_fit.py")

SWEEP_SEED = 2024

#: (m, n, k) of the vectorized sweep: squares, then blocked closure's
#: rank-64 update and row panel at three sizes.
SQUARE_SIZES = (16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
BLOCKED_SIZES = (256, 512, 1024)
BLOCK = 64

#: The sparse sweep: square sizes × densities, capped in expected products.
SPARSE_SIZES = (16, 32, 64, 128, 256, 512, 1024)
DENSITIES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
MAX_SPARSE_PRODUCTS = 12_000_000

#: (m, n, k) of the emulate sweep.
EMULATE_SHAPES = (
    (16, 16, 16), (32, 32, 32), (48, 48, 48), (64, 64, 64),
    (16, 64, 64), (64, 64, 16), (1, 80, 32),
)

#: Each launch is timed at least ``MIN_RUNS`` and at most ``MAX_RUNS``
#: times, stopping once its timed runs add up to ``TIMED_S`` seconds.
MIN_RUNS, MAX_RUNS = 2, 9
TIMED_S = 0.6


def _density_priced(backend: str, ring: str) -> bool:
    """Whether ``backend``'s price of a ``ring`` launch depends on density."""
    sparse = LaunchSpec(ring, 64, 64, 64, density_a=0.5, density_b=0.5)
    return terms(backend, sparse) != terms(backend, LaunchSpec(ring, 64, 64, 64))


def sweep() -> Iterator[tuple[str, str, int, int, int, float]]:
    """Every launch of the sweep: ``(backend, ring, m, n, k, density)``.

    Ring by ring and shape by shape, so that the backends the fit compares
    at one shape are timed within seconds of each other.
    """
    shapes = [(s, s, s) for s in SQUARE_SIZES]
    for s in BLOCKED_SIZES:
        shapes += [(s, s, BLOCK), (BLOCK, s, BLOCK)]
    for ring in SEMIRINGS:
        sparse = "sparse" in capable_backends(ring)
        dense_densities = DENSITIES if _density_priced("vectorized", ring) else (1.0,)
        for m, n, k in shapes:
            swept = m == n == k and m in SPARSE_SIZES
            for density in dense_densities if swept else (1.0,):
                yield "vectorized", ring, m, n, k, density
            if sparse and swept:
                for density in DENSITIES:
                    if m**3 * density**2 <= MAX_SPARSE_PRODUCTS:
                        yield "sparse", ring, m, n, k, density
        for m, n, k in EMULATE_SHAPES:
            yield "emulate", ring, m, n, k, 1.0


def _operand(
    ring: str, rows: int, cols: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Explicit entries at ``density``, the ring's ⊕ identity elsewhere."""
    semiring = get_semiring(ring)
    explicit = rng.random((rows, cols)) < density
    if semiring.is_boolean():
        return explicit
    values = rng.uniform(0.5, 8.5, (rows, cols))
    return np.where(explicit, values, semiring.oplus_identity)


def _time(backend: str, ring: str, a, b, c) -> float:
    """Least ``impl.execute`` wall time of a few runs after an untimed one."""
    trace = Trace()
    context = ExecutionContext(backend=backend, trace=trace)
    mmo_tiled(ring, a, b, c, context=context)
    timed: list[float] = []
    while len(timed) < MIN_RUNS or (
        len(timed) < MAX_RUNS and sum(timed) < TIMED_S
    ):
        mmo_tiled(ring, a, b, c, context=context)
        timed.append(trace.records[-1].wall_time_s)
    return min(timed)


def measure(launches: Iterable[tuple[str, str, int, int, int, float]]) -> dict:
    """Time each launch (of :func:`sweep`); the JSON the fit reads."""
    rng = np.random.default_rng(SWEEP_SEED)
    records = []
    started = time.perf_counter()
    for backend, ring, m, n, k, density in launches:
        a = _operand(ring, m, k, density, rng)
        b = _operand(ring, k, n, density, rng)
        c = _operand(ring, m, n, density, rng)
        seconds = _time(backend, ring, a, b, c)
        records.append({
            "backend": backend, "ring": ring, "m": m, "n": n, "k": k,
            "density": density, "seconds": seconds,
        })
        print(f"{backend:10s} {ring:9s} {m:4d}x{n:4d}x{k:4d} d={density:<6g}"
              f" {seconds * 1e3:10.3f} ms", flush=True)
    return {
        "date": datetime.date.today().isoformat(),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "seconds": round(time.perf_counter() - started, 1),
        "records": records,
    }


def _dump(payload: dict) -> str:
    """The sweep as JSON, one record a line."""
    head = json.dumps({k: v for k, v in payload.items() if k != "records"})
    records = ",\n".join(json.dumps(record) for record in payload["records"])
    return f'{head[:-1]}, "records": [\n{records}\n]}}\n'


def _key(record: dict) -> tuple[str, str, int, int, int, float]:
    return tuple(record[name] for name in ("backend", "ring", "m", "n", "k", "density"))


def _splice(payload: dict) -> dict:
    """The committed sweep with ``payload``'s records in place of its own.

    Records come in :func:`sweep` order; the committed sweep's duration
    stays.
    """
    with open(SWEEP, encoding="utf-8") as fh:
        committed = json.load(fh)
    records = {_key(record): record for record in committed["records"]}
    records.update((_key(record), record) for record in payload["records"])
    missing = [launch for launch in sweep() if launch not in records]
    if missing:
        raise SystemExit(f"the sweep has no time for {missing[0]}: re-measure it")
    return {
        **payload,
        "seconds": committed["seconds"],
        "records": [records[launch] for launch in sweep()],
    }


def _spec(record: dict) -> LaunchSpec:
    return LaunchSpec(
        record["ring"], record["m"], record["n"], record["k"],
        density_a=record["density"], density_b=record["density"],
        has_accumulator=True,
    )


def _round(value: float) -> float:
    """Four significant digits: the fit reproduces on any platform."""
    return float(f"{value:.4g}")


def fit(records: list[dict]) -> dict[str, dict[str, tuple[float, ...]]]:
    """Coefficients per backend and ring, in seconds per unit of each term.

    One non-negative least-squares problem per ``(backend, ring)`` pair,
    with every row divided by its measured time (relative error) and every
    column scaled to unit norm before solving.
    """
    groups = collections.defaultdict(list)
    for record in records:
        groups[record["backend"], record["ring"]].append(record)
    coefficients: dict[str, dict[str, tuple[float, ...]]] = {}
    for (backend, ring), group in sorted(groups.items()):
        x = np.array([terms(backend, _spec(r)) for r in group])
        y = np.array([r["seconds"] for r in group])
        rows = x / y[:, None]
        scale = np.linalg.norm(rows, axis=0)
        scale[scale == 0.0] = 1.0
        solution, _ = nnls(rows / scale, np.ones(len(group)))
        coefficients.setdefault(backend, {})[ring] = tuple(
            _round(value) for value in solution / scale
        )
    return coefficients


def residual(records: list[dict]) -> tuple[dict[str, float], float]:
    """How far the model sits from the sweep, as factors >= 1.

    Per backend, the largest factor between a modelled and a measured
    time; and the largest factor by which the backend the model picks at
    a point was measured slower than the fastest backend measured there
    (see :func:`points`).
    """
    error: dict[str, float] = {}
    for record in records:
        modelled = estimate(record["backend"], _spec(record))
        factor = max(modelled / record["seconds"], record["seconds"] / modelled)
        error[record["backend"]] = max(error.get(record["backend"], 1.0), factor)
    mispick = 1.0
    for record, times in points(records):
        spec = _spec(record)
        pick = min(times, key=lambda name: estimate(name, spec))
        mispick = max(mispick, times[pick] / min(times.values()))
    return error, mispick


def points(records: list[dict]) -> Iterator[tuple[dict, dict[str, float]]]:
    """Each launch with the time of every backend measured at its point.

    A backend timed at the launch's shape and density stands for itself.
    One timed at the shape on dense operands only (``emulate``, and
    ``vectorized`` on every ring but or-and) prices the same at every
    density, so its dense time stands for every density of that shape.
    """
    timed = collections.defaultdict(dict)
    for record in records:
        key = record["ring"], record["m"], record["n"], record["k"]
        timed[key][record["backend"], record["density"]] = record["seconds"]
    for record in records:
        at = timed[record["ring"], record["m"], record["n"], record["k"]]
        times = {}
        for backend, _ in at:
            seconds = at.get((backend, record["density"]), at.get((backend, 1.0)))
            if seconds is not None:
                times[backend] = seconds
        yield record, times


def render(coefficients: dict[str, dict[str, tuple[float, ...]]], meta: dict) -> str:
    """The generated coefficients module."""
    host = meta["host"]
    lines = [
        '"""Fitted backend-cost coefficients, in seconds per unit of each term.',
        "",
        "Generated by ``tools/fit_backend_cost.py`` from",
        f"``tools/backend_cost_sweep.json`` (measured {meta['date']} on "
        f"{host['cpus']} CPUs, Python",
        f"{host['python']}, NumPy {host['numpy']}).  Do not edit: re-measure "
        "and re-fit.",
        "The term order of each tuple is "
        ":data:`repro.timing.backend_cost.TERMS`.",
        '"""',
        "",
        "COEFFICIENTS: dict[str, dict[str, tuple[float, ...]]] = {",
    ]
    for backend in TERMS:
        lines.append(f"    {backend!r}: {{")
        for ring, values in coefficients.get(backend, {}).items():
            lines.append(f"        {ring!r}: ({', '.join(map(repr, values))},),")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--measure", action="store_true",
        help="re-measure the sweep on this host before fitting",
    )
    parser.add_argument(
        "--ring", action="append", choices=sorted(SEMIRINGS),
        help="with --measure, re-measure only this ring's launches (repeatable)",
    )
    parser.add_argument(
        "--backend", action="append", choices=sorted(TERMS),
        help="with --measure, re-measure only this backend's launches (repeatable)",
    )
    args = parser.parse_args(argv)
    partial = bool(args.ring or args.backend)
    if partial and not args.measure:
        parser.error("--ring and --backend need --measure")
    if args.measure:
        payload = measure(
            launch for launch in sweep()
            if launch[0] in (args.backend or TERMS) and launch[1] in (args.ring or SEMIRINGS)
        )
        print(f"measured {len(payload['records'])} launches in {payload['seconds']} s")
        if partial:
            payload = _splice(payload)
        with open(SWEEP, "w", encoding="utf-8") as fh:
            fh.write(_dump(payload))
        print(f"wrote {SWEEP}")
    with open(SWEEP, encoding="utf-8") as fh:
        payload = json.load(fh)
    coefficients = fit(payload["records"])
    with open(MODULE, "w", encoding="utf-8") as fh:
        fh.write(render(coefficients, payload))
    print(f"wrote {MODULE}")
    # The estimator imported the previous coefficients: price with the new.
    from repro.timing import backend_cost_fit

    backend_cost_fit.COEFFICIENTS.clear()
    backend_cost_fit.COEFFICIENTS.update(coefficients)
    error, mispick = residual(payload["records"])
    for backend, factor in error.items():
        print(f"{backend:10s} worst model error {factor:.2f}x")
    print(f"worst mispick {mispick:.2f}x (MODEL_ERROR_BAND {MODEL_ERROR_BAND})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
