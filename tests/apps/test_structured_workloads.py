"""Integration tests on structured graph topologies.

Erdős–Rényi graphs (the default workloads) have tiny diameters; these
tests run the applications on the opposite regimes — high-diameter grids,
small-world rings, heavy-tailed scale-free graphs — where convergence
behaviour and sparse access patterns differ materially.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import apsp_baseline, apsp_simd2, gtc_baseline, gtc_simd2, mst_baseline, mst_simd2
from repro.datasets import (
    GraphSpec,
    grid_distance_graph,
    scale_free_mask,
    small_world_distance_graph,
)
from repro.runtime import closure
from repro.sparse import CsrMatrix, sparse_closure


class TestGridWorkloads:
    def test_apsp_on_grid_matches_manhattan(self):
        rows, cols = 5, 6
        adj = grid_distance_graph(rows, cols)
        simd = apsp_simd2(adj)
        base = apsp_baseline(adj)
        np.testing.assert_array_equal(simd.distances, base.distances)
        # Closed form: Manhattan distance between grid coordinates.
        for a in range(rows * cols):
            for b in range(rows * cols):
                expected = abs(a // cols - b // cols) + abs(a % cols - b % cols)
                assert simd.distances[a, b] == expected

    def test_grid_needs_more_leyzorek_iterations_than_er(self):
        # Diameter 9+9=18 on a 10x10 grid vs ~3 for an ER graph: the
        # convergence check must reflect that.
        grid = apsp_simd2(grid_distance_graph(10, 10), method="leyzorek")
        from repro.datasets import distance_graph

        er = apsp_simd2(
            distance_graph(GraphSpec(100, 0.16, seed=0)), method="leyzorek"
        )
        assert grid.closure_result.iterations > er.closure_result.iterations

    def test_bellman_ford_iterations_track_grid_diameter(self):
        adj = grid_distance_graph(3, 7)
        result = closure("min-plus", adj, method="bellman-ford")
        diameter = (3 - 1) + (7 - 1)
        assert result.converged
        assert diameter <= result.iterations <= diameter + 2


class TestSmallWorldWorkloads:
    def test_apsp_agreement(self):
        adj = small_world_distance_graph(GraphSpec(48, 0.1, seed=9))
        simd = apsp_simd2(adj)
        base = apsp_baseline(adj)
        np.testing.assert_array_equal(simd.distances, base.distances)

    def test_mst_on_rewired_ring(self):
        # Build an MST instance from the small-world topology with
        # distinct weights.
        base_adj = small_world_distance_graph(
            GraphSpec(30, 0.1, seed=10), rewire_probability=0.15
        )
        mask = np.triu(np.isfinite(base_adj) & (base_adj != 0), k=1)
        n = 30
        weights = np.full((n, n), np.inf)
        for rank, flat in enumerate(np.flatnonzero(mask)):
            u, v = divmod(int(flat), n)
            weights[u, v] = weights[v, u] = 1.0 + rank * 0.125
        np.fill_diagonal(weights, 0.0)
        simd = mst_simd2(weights)
        base = mst_baseline(weights)
        assert simd.edges == base.edges


class TestScaleFreeWorkloads:
    def test_gtc_on_scale_free(self):
        mask = scale_free_mask(GraphSpec(60, 0.1, seed=11), attachment=2)
        simd = gtc_simd2(mask)
        base = gtc_baseline(mask)
        np.testing.assert_array_equal(simd.reachable, base.reachable)
        # A connected scale-free graph: everything reaches everything.
        assert simd.reachable.all()

    def test_sparse_closure_exploits_skew(self):
        # Scale-free degree skew: the sparse closure still matches the
        # dense result while performing far fewer products than n³.
        n = 60
        mask = scale_free_mask(GraphSpec(n, 0.1, seed=12), attachment=2)
        adj = np.where(mask, 1.0, np.inf)
        np.fill_diagonal(adj, 0.0)
        dense = closure("min-plus", adj)
        sparse = sparse_closure("min-plus", CsrMatrix.from_dense(adj, implicit=np.inf))
        np.testing.assert_array_equal(
            sparse.matrix.to_dense(implicit=np.inf).astype(np.float32), dense.matrix
        )
        assert sparse.total_products < sparse.iterations * n**3
