"""All-Pairs Shortest Path (APSP) — the paper's min-plus application.

Baseline: the phase-based tiled Floyd–Warshall of ECL-APSP, reimplemented
in :mod:`repro.apps.floyd_warshall`.  SIMD² version: min-plus blocked
closure — the same three phases as 64-vertex rounds of mmo launches — or,
on request, the Figure 7 host loop with Leyzorek squaring or all-pairs
Bellman-Ford; each with an optional convergence check.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.floyd_warshall import FwStats, _reject_nan, blocked_floyd_warshall
from repro.runtime.closure import ClosureResult, closure

__all__ = ["ApspResult", "apsp_baseline", "apsp_simd2"]


@dataclasses.dataclass(frozen=True)
class ApspResult:
    """Distance matrix plus execution structure of the producing algorithm."""

    distances: np.ndarray
    fw_stats: FwStats | None = None
    closure_result: ClosureResult | None = None


def _validate_minplus_adjacency(adjacency: np.ndarray) -> np.ndarray:
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    _reject_nan(adjacency)
    if np.any(np.diag(adjacency) != 0.0):
        raise ValueError("min-plus adjacency must have a zero diagonal")
    if np.any(adjacency < 0):
        raise ValueError("negative edge weights are not supported")
    return adjacency


def apsp_baseline(adjacency: np.ndarray, *, block: int = 16) -> ApspResult:
    """ECL-APSP-style tiled Floyd–Warshall."""
    adjacency = _validate_minplus_adjacency(adjacency)
    distances, stats = blocked_floyd_warshall("min-plus", adjacency, block=block)
    return ApspResult(distances=distances, fw_stats=stats)


def apsp_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> ApspResult:
    """SIMD² APSP: min-plus closure on the matrix unit."""
    adjacency = _validate_minplus_adjacency(adjacency)
    result = closure(
        "min-plus",
        adjacency,
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )
    return ApspResult(distances=result.matrix, closure_result=result)
