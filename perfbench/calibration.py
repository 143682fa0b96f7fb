"""Host-speed calibration: a fixed NumPy kernel timed between slices of solves.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes as neighbouring tenants come and go.  Measured
on a shared 2-CPU x86 VM, eight back-to-back 12-s runs of
``apsp_small_batch`` read 797-1067 solves/s, a quartile spread of 0.20
of the median, from one and the same program.  Wall time alone then
measures the host as much as the program.

So every workload has a calibration kernel: a frozen NumPy rendering of
its hot loop on fixed inputs, built without :mod:`repro`, so that no
change to the program changes the kernel's work.  The worker asks for a
calibration before the timed phase and after every slice of solves, and
scales each solve's wall time by ``reference_s / measured``, where
``measured`` is the median of the four calibrations nearest its slice.
The benchmark thus reports how long a solve would take at the host speed
at which ``reference_s`` was measured (the VM above, quiet).  Set-up time
is scaled the same way by the set-up kernel, timed right after set-up.

The kernels run in ``run.py``'s process while the worker waits for the
result, not in the worker: their allocations would change the worker's
heap, and with it the program's peak resident memory, by up to 20 MB.
``run.py`` pins itself and its workers to one CPU, because the host's
tenants load its CPUs unevenly, so a kernel timed on another CPU than the
solves can misread the speed they ran at.

On the same VM, ten 20-s runs per workload on ten seeds gave quartile
spreads of the unscaled solve_s_p50 of 0.11-0.41 of the median and of
the scaled one of 0.04-0.10 (0.04-0.13 in a second set).  The scaling cancels the host's speed, not
the program's: a change that makes the program slower makes its solves
slower and leaves the kernel as it was.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["KINDS", "Calibration", "build", "speed"]


@dataclass(frozen=True)
class Calibration:
    """A calibration kernel and how often one measurement runs it."""

    kernel: Callable[[], object]
    repeats: int

    def measure(self) -> float:
        """Median wall time of ``repeats`` runs of the kernel."""
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _grid(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Small integers, exact in fp16, as the workloads' inputs are."""
    return rng.integers(1, 16, size=shape).astype(np.float32)


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.min(a[:, :, None] + b[None, :, :], axis=1)


def _dense() -> Callable[[], object]:
    # One 64-row block of one 768-vertex min-plus squaring.
    rng = np.random.default_rng(1)
    a, b = _grid(rng, (64, 768)), _grid(rng, (768, 768))
    return lambda: _min_plus(a, b)


def _knn() -> Callable[[], object]:
    # Plus-norm distances of 64 queries to 4096 references at depth 48,
    # then a stable sort of each row.
    rng = np.random.default_rng(2)
    queries, refs = _grid(rng, (64, 48)), _grid(rng, (48, 4096))

    def kernel() -> object:
        diff = queries[:, :, None] - refs[None, :, :]
        return np.argsort(np.sum(diff * diff, axis=1), axis=1, kind="stable")

    return kernel


def _gtc() -> Callable[[], object]:
    # One 64-row block of a 1024-vertex or-and product, then row-by-row
    # sparse merges: gather, sort and deduplicate column indices.
    rng = np.random.default_rng(3)
    a = rng.random((64, 1024)) < 0.2
    b = rng.random((1024, 1024)) < 0.2
    rows = [np.flatnonzero(row) for row in rng.random((96, 1024)) < 0.05]

    def kernel() -> object:
        np.any(a[:, :, None] & b[None, :, :], axis=1)
        for i in range(len(rows) - 4):
            cols = np.sort(np.concatenate(rows[i:i + 4]), kind="stable")
            cols[np.concatenate(([True], cols[1:] != cols[:-1]))]
        return None

    return kernel


def _leyzorek(adjacency: np.ndarray) -> np.ndarray:
    """Min-plus closure by repeated squaring, padded to 16-multiples."""
    n = adjacency.shape[0]
    size = -(-n // 16) * 16
    d = np.full((size, size), np.inf, dtype=np.float32)
    d[:n, :n] = adjacency
    while True:
        quantized = d.astype(np.float16).astype(np.float32)
        step = np.minimum(d, _min_plus(quantized, quantized))
        if np.array_equal(step, d):
            return d[:n, :n]
        d = step


def _small() -> Callable[[], object]:
    # Closures of seven graphs of 12-44 vertices: small arrays, many calls.
    rng = np.random.default_rng(4)
    graphs = []
    for n in (12, 20, 24, 28, 30, 40, 44):
        weights = _grid(rng, (n, n))
        adjacency = np.where(rng.random((n, n)) < 0.15, weights, np.inf)
        np.fill_diagonal(adjacency, 0.0)
        graphs.append(adjacency.astype(np.float32))

    def kernel() -> object:
        return [_leyzorek(adjacency) for adjacency in graphs]

    return kernel


# Per kind: kernel, repeats per measurement, reference time (s).  A
# measurement takes about 5% of a slice of solves.  Set-up is import plus
# small warm-up solves: interpreter-bound work, like the small closures.
_KINDS: dict[str, tuple[Callable[[], Callable[[], object]], int, float]] = {
    "setup": (_small, 5, 0.0035),
    "apsp_dense": (_dense, 3, 0.08),
    "knn_wide": (_knn, 3, 0.065),
    "gtc_auto_sparse": (_gtc, 5, 0.03),
    "apsp_small_batch": (_small, 5, 0.0035),
}

#: What can be calibrated: set-up, and each workload's timed phase.
KINDS = tuple(_KINDS)


def build(kind: str) -> Calibration:
    """The calibration of ``kind``, its kernel built and run once."""
    make, repeats, _ = _KINDS[kind]
    calibration = Calibration(make(), repeats)
    calibration.kernel()  # first run: page in the kernel's code and data
    return calibration


def speed(kind: str, measured_s: float) -> float:
    """The host's speed relative to the reference; a time is scaled by it."""
    return _KINDS[kind][2] / measured_s
