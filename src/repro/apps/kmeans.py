"""K-means clustering with the add-norm instruction.

The paper motivates ``plus-norm`` with "K-nearest neighbor and K-means
problems" (Table 1/§5.2): the assignment step of Lloyd's algorithm is a
pairwise squared-L2 distance computation — one add-norm mmo between the
point matrix and the centroid matrix — followed by an argmin.  The update
step (centroid means) stays on the scalar/vector cores, exactly the
heterogeneous split the SIMD² programming model is designed around.

Baseline: textbook Lloyd's with per-point distance loops.  Both versions
share the deterministic seeding and tie-breaking, so they converge to
identical assignments (distances agree bit-for-bit on fp16-exact inputs).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.knn import _reject_non_finite
from repro.runtime.kernels import mmo_tiled

__all__ = ["KmeansResult", "kmeans_baseline", "kmeans_simd2"]


@dataclasses.dataclass(frozen=True)
class KmeansResult:
    """Clustering outcome."""

    centroids: np.ndarray  # (k, dims)
    assignments: np.ndarray  # (num_points,)
    iterations: int
    converged: bool
    inertia: float  # sum of squared distances to assigned centroids


def _validate(points: np.ndarray, k: int, max_iterations: int) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if not (1 <= k <= points.shape[0]):
        raise ValueError(f"k={k} out of range for {points.shape[0]} points")
    if max_iterations <= 0:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    _reject_non_finite("points", points)
    return points


def _seed_centroids(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic seeding: k distinct points chosen by a seeded RNG."""
    rng = np.random.default_rng(seed)
    chosen = rng.choice(points.shape[0], size=k, replace=False)
    return points[np.sort(chosen)].copy()


def _update_step(
    points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Centroid means; empty clusters keep their previous centroid."""
    updated = centroids.copy()
    for cluster in range(centroids.shape[0]):
        members = points[assignments == cluster]
        if len(members):
            updated[cluster] = members.mean(axis=0)
    return updated


def _finish(
    points: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    distances: np.ndarray,
    iterations: int,
    converged: bool,
) -> KmeansResult:
    inertia = float(distances[np.arange(len(points)), assignments].sum())
    return KmeansResult(
        centroids=centroids,
        assignments=assignments,
        iterations=iterations,
        converged=converged,
        inertia=inertia,
    )


def kmeans_baseline(
    points: np.ndarray, k: int, *, seed: int = 0, max_iterations: int = 50
) -> KmeansResult:
    """Lloyd's algorithm with explicit per-point distance loops."""
    points = _validate(points, k, max_iterations)
    p16 = points.astype(np.float16).astype(np.float32)
    centroids = _seed_centroids(points, k, seed)
    assignments = np.zeros(len(points), dtype=np.int64)
    distances = np.zeros((len(points), k), dtype=np.float32)
    converged = False
    iterations = 0
    for _ in range(max_iterations):
        c16 = centroids.astype(np.float16).astype(np.float32)
        for i in range(len(points)):
            diff = p16[i][None, :] - c16
            distances[i] = np.sum(diff * diff, axis=1, dtype=np.float32)
        new_assignments = distances.argmin(axis=1)
        iterations += 1
        if np.array_equal(new_assignments, assignments) and iterations > 1:
            converged = True
            break
        assignments = new_assignments
        centroids = _update_step(points, assignments, centroids)
    return _finish(points, centroids, assignments, distances, iterations, converged)


def kmeans_simd2(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iterations: int = 50,
    backend: str | None = None,
) -> KmeansResult:
    """Lloyd's algorithm with the assignment step as one add-norm mmo."""
    points = _validate(points, k, max_iterations)
    centroids = _seed_centroids(points, k, seed)
    assignments = np.zeros(len(points), dtype=np.int64)
    distances = np.zeros((len(points), k), dtype=np.float32)
    converged = False
    iterations = 0
    for _ in range(max_iterations):
        # One whole-matrix plus-norm mmo: points (n×d) ⊗⊕ centroidsᵀ (d×k).
        distances, _ = mmo_tiled("plus-norm", points, centroids.T, backend=backend)
        new_assignments = distances.argmin(axis=1)
        iterations += 1
        if np.array_equal(new_assignments, assignments) and iterations > 1:
            converged = True
            break
        assignments = new_assignments
        centroids = _update_step(points, assignments, centroids)
    return _finish(points, centroids, assignments, distances, iterations, converged)
