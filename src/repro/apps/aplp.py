"""All-Pairs Longest (Critical) Path on DAGs — the max-plus application.

Baseline: ECL-APSP "with reversed weights" as the paper describes —
equivalently, tiled Floyd–Warshall under the max-plus semiring, which is
well defined on DAGs (no positive cycles).  SIMD² version: max-plus
closure.  Entries are ``-inf`` for unreachable pairs and 0 on the diagonal.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.floyd_warshall import FwStats, _reject_nan, blocked_floyd_warshall
from repro.runtime.closure import ClosureResult, closure

__all__ = ["AplpResult", "aplp_baseline", "aplp_simd2", "dag_longest_path_dp"]


@dataclasses.dataclass(frozen=True)
class AplpResult:
    """Critical-path length matrix plus algorithm structure."""

    lengths: np.ndarray
    fw_stats: FwStats | None = None
    closure_result: ClosureResult | None = None


def _validate_maxplus_adjacency(adjacency: np.ndarray) -> np.ndarray:
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    _reject_nan(adjacency)
    if np.any(np.diag(adjacency) != 0.0):
        raise ValueError("max-plus adjacency must have a zero diagonal")
    finite = np.isfinite(adjacency)
    np.fill_diagonal(finite, False)
    if np.any(np.tril(finite)):
        raise ValueError(
            "expected a topologically ordered DAG (edges above the diagonal); "
            "longest paths are undefined on graphs with positive cycles"
        )
    return adjacency


def aplp_baseline(adjacency: np.ndarray, *, block: int = 16) -> AplpResult:
    """Tiled Floyd–Warshall under max-plus (the reversed-weight ECL-APSP)."""
    adjacency = _validate_maxplus_adjacency(adjacency)
    lengths, stats = blocked_floyd_warshall("max-plus", adjacency, block=block)
    return AplpResult(lengths=lengths, fw_stats=stats)


def dag_longest_path_dp(adjacency: np.ndarray) -> np.ndarray:
    """Textbook O(V·E) dynamic program over the topological order.

    An independent second oracle for tests: processes vertices in reverse
    topological order and relaxes outgoing edges.
    """
    adjacency = _validate_maxplus_adjacency(adjacency)
    n = adjacency.shape[0]
    lengths = np.full((n, n), -np.inf)
    np.fill_diagonal(lengths, 0.0)
    for src in range(n - 1, -1, -1):
        for dst in range(src + 1, n):
            weight = adjacency[src, dst]
            if np.isfinite(weight):
                candidate = weight + lengths[dst]
                lengths[src] = np.maximum(lengths[src], candidate)
    return lengths


def aplp_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> AplpResult:
    """SIMD² APLP: max-plus closure on the matrix unit."""
    adjacency = _validate_maxplus_adjacency(adjacency)
    result = closure(
        "max-plus",
        adjacency,
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )
    return AplpResult(lengths=result.matrix, closure_result=result)
