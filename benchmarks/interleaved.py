"""Interleaved timing of two calls, shared by the gate benchmarks.

``bench_dispatch.py``, ``bench_scheduler.py``, ``bench_resilience.py`` and
``bench_hotpaths.py`` each compare two calls (a baseline and the path
under test).  Timing them alternately exposes both to the same host
drift.  :func:`interleaved_mins` takes each call's minimum over the
repeats, which discards scheduling bursts but lets one rare fast repeat of
either call decide the ratio.  :func:`paired_ratios` times the two calls
back to back in each repeat and returns each repeat's ratio, so a gate on
their median compares calls that saw the same host.  The scripts run as
``python benchmarks/<script>.py``, which puts this directory on
``sys.path``.
"""

from __future__ import annotations

import time
from typing import Callable


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def interleaved_mins(
    fn_a: Callable[[], object], fn_b: Callable[[], object], repeats: int
) -> tuple[float, float]:
    """min-of-repeats for two fns, alternating so drift hits both alike."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        best_a = min(best_a, _timed(fn_a))
        best_b = min(best_b, _timed(fn_b))
    return best_a, best_b


def paired_ratios(
    fn_a: Callable[[], object], fn_b: Callable[[], object], repeats: int
) -> tuple[list[float], tuple[float, float]]:
    """Per-repeat ``b / a`` ratios, each from one back-to-back pair.

    The pair's order alternates from repeat to repeat, so neither call
    always runs first.  Also returns each call's minimum over the repeats,
    the statistic of :func:`interleaved_mins`, from the same timings.
    """
    ratios = []
    best_a = best_b = float("inf")
    for repeat in range(repeats):
        if repeat % 2:
            b_s = _timed(fn_b)
            a_s = _timed(fn_a)
        else:
            a_s = _timed(fn_a)
            b_s = _timed(fn_b)
        ratios.append(b_s / a_s)
        best_a, best_b = min(best_a, a_s), min(best_b, b_s)
    return ratios, (best_a, best_b)
