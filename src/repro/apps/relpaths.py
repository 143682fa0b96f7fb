"""The transitive-closure path family: MaxCP, MaxRP, MinRP.

Three of the paper's applications share the same shape — an all-pairs
closure under a non-plus semiring — and share the same baseline, CUDA-FW
(a plain Floyd–Warshall kernel), with only the update operators swapped:

- **Maximum Capacity Path (MaxCP)**, max-min: the capacity of a path is
  the minimum edge capacity along it; take the best path.
- **Maximum Reliability Path (MaxRP)**, max-mul: the reliability of a
  path is the product of its edge reliabilities (in (0, 1]); maximise it.
- **Minimum Reliability Path (MinRP)**, min-mul: minimise the product.
  Defined on DAGs: on cyclic graphs with sub-unit weights the infimum over
  walks is 0 and no fixpoint exists, so baseline and closure would compute
  different (both arbitrary) quantities.

The SIMD² versions invoke the corresponding closure with the max-min,
max-mul and min-mul mmo instructions.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.floyd_warshall import FwStats, _reject_nan, floyd_warshall
from repro.core.registry import get_semiring
from repro.runtime.closure import ClosureResult, closure

__all__ = [
    "PathClosureResult",
    "max_capacity_baseline",
    "max_capacity_simd2",
    "max_reliability_baseline",
    "max_reliability_simd2",
    "min_reliability_baseline",
    "min_reliability_simd2",
]


@dataclasses.dataclass(frozen=True)
class PathClosureResult:
    """Closure matrix plus algorithm structure."""

    values: np.ndarray
    ring_name: str
    fw_stats: FwStats | None = None
    closure_result: ClosureResult | None = None


def _validated(adjacency: np.ndarray, ring_name: str) -> np.ndarray:
    ring = get_semiring(ring_name)
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    _reject_nan(adjacency)
    if ring_name == "min-mul":
        finite_offdiag = np.isfinite(adjacency)
        np.fill_diagonal(finite_offdiag, False)
        if np.any(np.tril(finite_offdiag)):
            raise ValueError(
                "min-mul (MinRP) requires a topologically ordered DAG; "
                "cyclic graphs have no minimum-reliability fixpoint"
            )
    return adjacency


def _baseline(adjacency: np.ndarray, ring_name: str) -> PathClosureResult:
    adjacency = _validated(adjacency, ring_name)
    values, stats = floyd_warshall(ring_name, adjacency)
    return PathClosureResult(values=values, ring_name=ring_name, fw_stats=stats)


def _simd2(
    adjacency: np.ndarray,
    ring_name: str,
    *,
    method: str,
    convergence_check: bool,
    backend: str | None,
    max_iterations: int | None,
) -> PathClosureResult:
    adjacency = _validated(adjacency, ring_name)
    result = closure(
        ring_name,
        adjacency,
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )
    return PathClosureResult(
        values=result.matrix, ring_name=ring_name, closure_result=result
    )


def max_capacity_baseline(adjacency: np.ndarray) -> PathClosureResult:
    """CUDA-FW with max-min updates (adjacency: -inf non-edges, +inf diagonal)."""
    return _baseline(adjacency, "max-min")


def max_capacity_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> PathClosureResult:
    """SIMD² MaxCP via the max-min instruction."""
    return _simd2(
        adjacency,
        "max-min",
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )


def max_reliability_baseline(adjacency: np.ndarray) -> PathClosureResult:
    """CUDA-FW with max-mul updates (adjacency: -inf non-edges, 1 diagonal)."""
    return _baseline(adjacency, "max-mul")


def max_reliability_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> PathClosureResult:
    """SIMD² MaxRP via the max-mul instruction."""
    return _simd2(
        adjacency,
        "max-mul",
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )


def min_reliability_baseline(adjacency: np.ndarray) -> PathClosureResult:
    """CUDA-FW with min-mul updates on a DAG (+inf non-edges, 1 diagonal)."""
    return _baseline(adjacency, "min-mul")


def min_reliability_simd2(
    adjacency: np.ndarray,
    *,
    method: str = "blocked",
    convergence_check: bool = True,
    backend: str | None = None,
    max_iterations: int | None = None,
) -> PathClosureResult:
    """SIMD² MinRP via the min-mul instruction."""
    return _simd2(
        adjacency,
        "min-mul",
        method=method,
        convergence_check=convergence_check,
        backend=backend,
        max_iterations=max_iterations,
    )
