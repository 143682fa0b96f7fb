"""Graph Transitive Closure — the paper's or-and application.

Baseline: breadth-first search from every vertex over adjacency lists (the
role cuBool's traversal kernels play).  SIMD² version: boolean closure via
the or-and mmo instruction.  Both produce the reflexive-transitive
reachability matrix.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from repro.runtime.closure import ClosureResult, closure

__all__ = ["GtcResult", "gtc_baseline", "gtc_simd2"]


@dataclasses.dataclass(frozen=True)
class GtcResult:
    """Reachability matrix plus algorithm statistics."""

    reachable: np.ndarray
    vertices_visited: int = 0
    closure_result: ClosureResult | None = None


def _validate_boolean(adjacency: np.ndarray) -> np.ndarray:
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if adjacency.dtype != np.dtype(bool):
        raise ValueError(f"adjacency must be boolean, got dtype {adjacency.dtype}")
    return adjacency


def gtc_baseline(adjacency: np.ndarray) -> GtcResult:
    """BFS from every source over adjacency lists."""
    adjacency = _validate_boolean(adjacency)
    n = adjacency.shape[0]
    neighbours = [np.flatnonzero(adjacency[v]) for v in range(n)]
    reachable = np.zeros((n, n), dtype=bool)
    visited_total = 0
    for source in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[source] = True
        queue = collections.deque([source])
        while queue:
            vertex = queue.popleft()
            visited_total += 1
            for nxt in neighbours[vertex]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        reachable[source] = seen
    return GtcResult(reachable=reachable, vertices_visited=visited_total)


def gtc_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "leyzorek",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> GtcResult:
    """SIMD² GTC: or-and closure of the reflexive adjacency matrix.

    Unlike the other closure apps, GTC defaults to the paper's Leyzorek
    loop, the schedule of the paper's GTC.  Under ``backend="auto"`` each
    squaring is planned on its own; the dense kernel's packed or-and pass
    beats spGEMM at every density on this substrate, so every iterate,
    sparse or dense, runs on it.  Pass ``method="blocked"`` for the tiled
    schedule.
    """
    adjacency = _validate_boolean(adjacency).copy()
    np.fill_diagonal(adjacency, True)  # reflexive closure, as the paper's GTC
    result = closure(
        "or-and",
        adjacency,
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )
    return GtcResult(reachable=result.matrix, closure_result=result)
