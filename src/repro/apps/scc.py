"""Strongly Connected Components via or-and closures.

A natural companion to GTC in the paper's graph-analytics family: with the
reachability closure ``R`` in hand, vertices ``i`` and ``j`` are strongly
connected iff ``R[i, j] ∧ R[j, i]`` — so SCC costs one or-and closure plus
an element-wise AND with its transpose (a CUDA-core pass), the same
mmo-plus-elementwise split as every other SIMD² application.

Baseline: Kosaraju's algorithm from scratch — iterative DFS finish order
on the graph, then reverse-graph DFS in that order.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.runtime.closure import ClosureResult, closure

__all__ = ["SccResult", "scc_baseline", "scc_simd2"]


@dataclasses.dataclass(frozen=True)
class SccResult:
    """Component labels (canonical: smallest member index per component)."""

    labels: np.ndarray  # (n,) int64
    num_components: int
    closure_result: ClosureResult | None = None


def _validate(adjacency: np.ndarray) -> np.ndarray:
    adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    if adjacency.dtype != np.dtype(bool):
        raise ValueError(f"adjacency must be boolean, got dtype {adjacency.dtype}")
    return adjacency


def _canonical_labels(component_of: list[int]) -> SccResult:
    """Relabel so each component's id is its smallest vertex index."""
    n = len(component_of)
    smallest: dict[int, int] = {}
    for vertex in range(n):
        comp = component_of[vertex]
        smallest.setdefault(comp, vertex)
    labels = np.array([smallest[component_of[v]] for v in range(n)], dtype=np.int64)
    return SccResult(labels=labels, num_components=len(smallest))


def scc_baseline(adjacency: np.ndarray) -> SccResult:
    """Kosaraju's two-pass DFS (iterative, from scratch)."""
    adjacency = _validate(adjacency)
    n = adjacency.shape[0]
    out_edges = [np.flatnonzero(adjacency[v]) for v in range(n)]
    in_edges = [np.flatnonzero(adjacency[:, v]) for v in range(n)]

    # Pass 1: vertices by decreasing DFS finish time.
    visited = np.zeros(n, dtype=bool)
    finish_order: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        visited[start] = True
        while stack:
            vertex, edge_index = stack[-1]
            if edge_index < len(out_edges[vertex]):
                stack[-1] = (vertex, edge_index + 1)
                nxt = int(out_edges[vertex][edge_index])
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, 0))
            else:
                stack.pop()
                finish_order.append(vertex)

    # Pass 2: reverse-graph DFS in reverse finish order.
    component_of = [-1] * n
    current = -1
    for start in reversed(finish_order):
        if component_of[start] != -1:
            continue
        current += 1
        stack2 = [start]
        component_of[start] = current
        while stack2:
            vertex = stack2.pop()
            for nxt in in_edges[vertex]:
                nxt = int(nxt)
                if component_of[nxt] == -1:
                    component_of[nxt] = current
                    stack2.append(nxt)

    return _canonical_labels(component_of)


def scc_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "blocked",
    backend: str | None = None,
) -> SccResult:
    """SCC from one or-and closure: ``strong = R ∧ Rᵀ``."""
    adjacency = _validate(adjacency).copy()
    np.fill_diagonal(adjacency, True)
    result = closure("or-and", adjacency, method=method, backend=backend)
    strong = result.matrix & result.matrix.T
    # The component of v is the smallest u with strong[v, u].
    labels = np.argmax(strong, axis=1).astype(np.int64)
    outcome = _canonical_labels([int(label) for label in labels])
    return SccResult(
        labels=outcome.labels,
        num_components=outcome.num_components,
        closure_result=result,
    )
