"""Minimum Spanning Tree — the paper's min-max application.

Baseline: Kruskal's algorithm with a from-scratch union-find (the
"CUDA MST" baseline is Kruskal-based; the paper notes its O(E log E)
complexity).  SIMD² version: the min-max closure computes the *minimax*
(bottleneck) distance between every vertex pair; with distinct edge
weights, an edge belongs to the unique MST exactly when its weight equals
the minimax distance between its endpoints — the classic cycle-property
characterisation, which maps MST onto the min-max mmo instruction.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.floyd_warshall import _reject_nan
from repro.runtime.closure import ClosureResult, closure

__all__ = ["MstResult", "UnionFind", "mst_baseline", "mst_simd2", "minimax_matrix"]


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self._parent = list(range(size))
        self._rank = [0] * size

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True


@dataclasses.dataclass(frozen=True)
class MstResult:
    """Edges of the minimum spanning tree/forest, plus statistics."""

    edges: frozenset[tuple[int, int]]
    total_weight: float
    closure_result: ClosureResult | None = None
    edges_examined: int = 0


def _validate_weights(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"weight matrix must be square, got {weights.shape}")
    _reject_nan(weights)
    if not np.array_equal(weights, weights.T):
        raise ValueError("MST needs an undirected (symmetric) weight matrix")
    return weights


def _edge_list(weights: np.ndarray) -> list[tuple[float, int, int]]:
    n = weights.shape[0]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if np.isfinite(weights[u, v]):
                edges.append((float(weights[u, v]), u, v))
    return edges


def mst_baseline(weights: np.ndarray) -> MstResult:
    """Kruskal's algorithm: sort edges, grow a forest with union-find."""
    weights = _validate_weights(weights)
    edges = sorted(_edge_list(weights))
    uf = UnionFind(max(weights.shape[0], 1))
    chosen: set[tuple[int, int]] = set()
    total = 0.0
    for weight, u, v in edges:
        if uf.union(u, v):
            chosen.add((u, v))
            total += weight
    return MstResult(
        edges=frozenset(chosen), total_weight=total, edges_examined=len(edges)
    )


def minimax_matrix(
    weights: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> ClosureResult:
    """Min-max closure: ``B[u, v]`` = bottleneck (minimax) distance.

    Encoding: non-edges ``+inf``, diagonal ``-inf`` (the empty path has no
    maximum edge).
    """
    weights = _validate_weights(weights)
    encoded = np.where(np.isfinite(weights), weights, np.inf)
    np.fill_diagonal(encoded, -np.inf)
    return closure(
        "min-max",
        encoded,
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )


def mst_simd2(
    weights: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> MstResult:
    """SIMD² MST: select edges whose weight equals the minimax distance.

    Requires distinct edge weights (the MST is then unique); raises
    otherwise, because the cycle-property test would keep tied edges from
    both sides of a cycle.
    """
    weights = _validate_weights(weights)
    edge_weights = [w for (w, _, _) in _edge_list(weights)]
    if len(set(edge_weights)) != len(edge_weights):
        raise ValueError("mst_simd2 requires distinct edge weights")

    result = minimax_matrix(
        weights,
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )
    bottleneck = result.matrix
    chosen: set[tuple[int, int]] = set()
    total = 0.0
    n = weights.shape[0]
    for u in range(n):
        for v in range(u + 1, n):
            w = weights[u, v]
            if np.isfinite(w) and np.float32(w) == bottleneck[u, v]:
                chosen.add((u, v))
                total += float(w)
    return MstResult(
        edges=frozenset(chosen),
        total_weight=total,
        closure_result=result,
        edges_examined=len(edge_weights),
    )
