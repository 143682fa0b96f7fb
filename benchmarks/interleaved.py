"""Interleaved min-of-repeats timing, shared by the gate benchmarks.

``bench_dispatch.py``, ``bench_scheduler.py`` and ``bench_resilience.py``
each compare two calls (a baseline and the path under test).  Timing
them alternately exposes both to the same host drift, and the minimum of
the repeats discards scheduling bursts.  The scripts run as
``python benchmarks/<script>.py``, which puts this directory on
``sys.path``.
"""

from __future__ import annotations

import time
from typing import Callable


def interleaved_mins(
    fn_a: Callable[[], object], fn_b: Callable[[], object], repeats: int
) -> tuple[float, float]:
    """min-of-repeats for two fns, alternating so drift hits both alike."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b
