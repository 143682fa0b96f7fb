"""The benchmark's workloads: seeded inputs, independent references, solves.

Every workload drives one public :mod:`repro.apps` entry point, closed
loop with one client in one process.  Inputs come from the workload seed
through the :mod:`repro.datasets` generators; the program under test
receives only the generated arrays.  References come from SciPy, never
from :mod:`repro`, and every solve is compared with its reference by
exact equality (the generators draw fp16-exact values, so the fp16/fp32
datapath is lossless on these inputs).

This module imports :mod:`repro` only inside functions: the measured
worker process must pay the package import inside its set-up timer.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["SCALES", "WORKLOADS", "bind", "make_inputs", "matches"]

SCALES = ("full", "smoke")

#: The workloads, in the order ``BENCHMARK.json`` lists them with the
#: reason each was chosen.
WORKLOADS = ("apsp_dense", "knn_wide", "gtc_auto_sparse", "apsp_small_batch")


# Input sizes per scale.  "smoke" exists for the benchmark's self-tests.
_SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "apsp_dense": {"n": 768, "p": 0.02, "warm_n": 64},
        "knn_wide": {"queries": 4096, "refs": 4096, "dims": 40, "k": 16,
                     "warm": 64},
        # Mean out-degree 3.6: far enough above the giant-component
        # threshold that the closure's density barely moves between seeds,
        # with a hop diameter of 11-14, so every seed converges in the same
        # 5 iterations, while the planner still takes the iterate from
        # sparse to dense.
        "gtc_auto_sparse": {"n": 1024, "p": 0.0035, "warm_n": 192},
        "apsp_small_batch": {"pool": 1024, "lo": 8, "hi": 48, "p": 0.15},
    },
    "smoke": {
        "apsp_dense": {"n": 48, "p": 0.1, "warm_n": 32},
        "knn_wide": {"queries": 96, "refs": 128, "dims": 40, "k": 16,
                     "warm": 32},
        "gtc_auto_sparse": {"n": 256, "p": 0.012, "warm_n": 192},
        "apsp_small_batch": {"pool": 16, "lo": 8, "hi": 48, "p": 0.15},
    },
}


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    """Independent generator seeds derived from the workload seed."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _shortest_paths(adjacency: np.ndarray) -> np.ndarray:
    from scipy.sparse.csgraph import shortest_path

    # Dense input: +inf entries are non-edges; all weights are >= 1.
    return shortest_path(adjacency, method="D", directed=True)


def _reachability(adjacency: np.ndarray) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    hops = shortest_path(csr_matrix(adjacency), directed=True, unweighted=True)
    return np.isfinite(hops)


def _knn_reference(
    queries: np.ndarray, refs: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact squared-L2 k nearest references, ties broken by lower index."""
    from scipy.spatial.distance import cdist

    indices = np.empty((len(queries), k), dtype=np.int64)
    distances = np.empty((len(queries), k), dtype=np.float64)
    for start in range(0, len(queries), 512):
        block = cdist(queries[start:start + 512], refs, "sqeuclidean")
        order = np.argsort(block, axis=1, kind="stable")[:, :k]
        indices[start:start + 512] = order
        distances[start:start + 512] = np.take_along_axis(block, order, axis=1)
    return indices, distances


def make_inputs(name: str, seed: int, scale: str = "full") -> dict[str, Any]:
    """Generate one run's inputs, warm-up inputs and references.

    Returns ``{"workload", "inputs", "warmup", "references"}``: the timed
    phase cycles through ``inputs`` in order, ``references[i]`` is the
    tuple of arrays solve ``i`` must equal, and ``warmup`` holds small
    inputs of the same kind that the set-up phase solves once each.
    """
    from repro.datasets import (
        GraphSpec,
        PointCloudSpec,
        boolean_graph,
        distance_graph,
        uniform_points,
    )

    size = _SIZES[scale][name]
    if name == "apsp_dense":
        main, warm = _seeds(seed, 1, 2)
        inputs = [distance_graph(GraphSpec(size["n"], size["p"], main))]
        warmup = [distance_graph(GraphSpec(size["warm_n"], 0.1, warm))]
        references = [(_shortest_paths(adj),) for adj in inputs]
    elif name == "knn_wide":
        q, r, wq, wr = _seeds(seed, 2, 4)
        dims, k = size["dims"], size["k"]
        queries = uniform_points(PointCloudSpec(size["queries"], dims, seed=q))
        refs = uniform_points(PointCloudSpec(size["refs"], dims, seed=r))
        inputs = [(queries, refs, k)]
        warmup = [(
            uniform_points(PointCloudSpec(size["warm"], dims, seed=wq)),
            uniform_points(PointCloudSpec(size["warm"], dims, seed=wr)),
            k,
        )]
        references = [_knn_reference(queries, refs, k)]
    elif name == "gtc_auto_sparse":
        main, warm = _seeds(seed, 3, 2)
        n, warm_n = size["n"], size["warm_n"]
        inputs = [boolean_graph(GraphSpec(n, size["p"], main))]
        # Same mean degree at the warm-up size, so it crosses over too.
        warmup = [boolean_graph(GraphSpec(warm_n, size["p"] * n / warm_n, warm))]
        references = [(_reachability(adj),) for adj in inputs]
    elif name == "apsp_small_batch":
        rng = np.random.default_rng([seed, 4])
        sizes = rng.integers(size["lo"], size["hi"] + 1, size=size["pool"])
        # Warm-up graphs cover every tile grid the pool hits (16/32/48).
        warm_sizes = (16, 32, 48) * 11
        graph_seeds = _seeds(seed, 5, size["pool"] + len(warm_sizes))
        inputs = [
            distance_graph(GraphSpec(int(n), size["p"], s))
            for n, s in zip(sizes, graph_seeds)
        ]
        warmup = [
            distance_graph(GraphSpec(n, size["p"], s))
            for n, s in zip(warm_sizes, graph_seeds[size["pool"]:])
        ]
        references = [(_shortest_paths(adj),) for adj in inputs]
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return {
        "workload": name,
        "inputs": inputs,
        "warmup": warmup,
        "references": references,
    }


def bind(name: str) -> Callable[[Any], tuple[np.ndarray, ...]]:
    """The solve function of a workload: one app call, returning its outputs.

    Imports :mod:`repro`, so the worker calls it inside its set-up timer.
    Entry points are looked up on :mod:`repro.apps` at call time, which
    is where the traced run wraps them.
    """
    import repro.apps as apps

    if name in ("apsp_dense", "apsp_small_batch"):

        def solve(adjacency: np.ndarray) -> tuple[np.ndarray, ...]:
            return (apps.apsp_simd2(adjacency).distances,)

    elif name == "knn_wide":

        def solve(x: Any) -> tuple[np.ndarray, ...]:
            queries, refs, k = x
            result = apps.knn_simd2(queries, refs, k)
            return (result.indices, result.distances)

    elif name == "gtc_auto_sparse":
        from repro.plan import AutotuneTable
        from repro.runtime import use_context

        def solve(adjacency: np.ndarray) -> tuple[np.ndarray, ...]:
            # A fresh table per solve: no planner state carries over
            # between solves or runs through the process-wide default.
            with use_context(autotune=AutotuneTable()):
                return (apps.gtc_simd2(adjacency, backend="auto").reachable,)

    else:
        raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return solve


def matches(outputs: tuple[np.ndarray, ...], reference: tuple[np.ndarray, ...]) -> bool:
    """Exact equality of every output array with its reference."""
    return len(outputs) == len(reference) and all(
        np.shape(out) == np.shape(ref) and bool(np.array_equal(out, ref))
        for out, ref in zip(outputs, reference)
    )
