"""Validation tests for all eight applications: SIMD² == baseline.

This is the repository's analogue of the paper's correctness-validation
flow (Section 5.1): every SIMD²-ized program must produce the same output
as the state-of-the-art baseline implementation, despite using a different
algorithm and the fp16/fp32 mixed-precision datapath.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    aplp_baseline,
    aplp_simd2,
    apsp_baseline,
    apsp_simd2,
    dag_longest_path_dp,
    gtc_baseline,
    gtc_simd2,
    knn_baseline,
    knn_simd2,
    max_capacity_baseline,
    max_capacity_simd2,
    max_reliability_baseline,
    max_reliability_simd2,
    min_reliability_baseline,
    min_reliability_simd2,
    mst_baseline,
    mst_simd2,
)
from repro.datasets import (
    GraphSpec,
    PointCloudSpec,
    boolean_graph,
    capacity_graph,
    dag_distance_graph,
    distance_graph,
    gaussian_clusters,
    reliability_graph,
    undirected_distance_graph,
)

SPEC = GraphSpec(num_vertices=40, edge_probability=0.12, seed=11)


class TestApsp:
    def test_simd2_matches_baseline(self):
        adj = distance_graph(SPEC)
        base = apsp_baseline(adj)
        simd = apsp_simd2(adj)
        np.testing.assert_array_equal(simd.distances, base.distances)
        assert simd.closure_result.converged

    def test_bellman_ford_variant(self):
        adj = distance_graph(GraphSpec(24, 0.15, seed=3))
        base = apsp_baseline(adj)
        simd = apsp_simd2(adj, method="bellman-ford")
        np.testing.assert_array_equal(simd.distances, base.distances)

    def test_networkx_cross_check(self):
        import networkx as nx

        adj = distance_graph(GraphSpec(18, 0.2, seed=7))
        graph = nx.DiGraph()
        graph.add_nodes_from(range(18))
        for u in range(18):
            for v in range(18):
                if u != v and np.isfinite(adj[u, v]):
                    graph.add_edge(u, v, weight=float(adj[u, v]))
        simd = apsp_simd2(adj)
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
        for u in range(18):
            for v in range(18):
                expected = lengths.get(u, {}).get(v, np.inf)
                assert simd.distances[u, v] == np.float32(expected)

    def test_rejects_bad_diagonal(self):
        adj = distance_graph(GraphSpec(8, 0.3, seed=0))
        adj[0, 0] = 1.0
        with pytest.raises(ValueError, match="zero diagonal"):
            apsp_simd2(adj)

    def test_rejects_negative_weights(self):
        adj = distance_graph(GraphSpec(8, 0.3, seed=0))
        adj[0, 1] = -1.0
        with pytest.raises(ValueError, match="negative"):
            apsp_baseline(adj)


class TestAplp:
    def test_simd2_matches_baseline_and_dp(self):
        adj = dag_distance_graph(SPEC)
        base = aplp_baseline(adj)
        simd = aplp_simd2(adj)
        dp = dag_longest_path_dp(adj)
        np.testing.assert_array_equal(simd.lengths, base.lengths)
        np.testing.assert_array_equal(simd.lengths, dp.astype(np.float32))

    def test_rejects_cyclic_input(self):
        adj = np.full((3, 3), -np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 1.0  # 2-cycle below/above diagonal
        with pytest.raises(ValueError, match="DAG"):
            aplp_simd2(adj)


class TestPathFamily:
    def test_max_capacity(self):
        adj = capacity_graph(SPEC, maximize=True)
        base = max_capacity_baseline(adj)
        simd = max_capacity_simd2(adj)
        np.testing.assert_array_equal(simd.values, base.values)

    def test_max_reliability(self):
        # The mul rings round in the fp16 datapath, so SIMD² results match
        # the fp32 FW baseline only to fp16 tolerance — the accuracy check
        # the paper's validation flow performs (Section 5.1).
        adj = reliability_graph(SPEC, maximize=True)
        base = max_reliability_baseline(adj)
        simd = max_reliability_simd2(adj)
        np.testing.assert_allclose(simd.values, base.values, rtol=1e-2, atol=1e-4)

    def test_max_reliability_exact_on_power_of_two_weights(self):
        # Power-of-two reliabilities make every product fp16-exact, so the
        # two algorithms agree bit-for-bit.
        rng = np.random.default_rng(8)
        n = 30
        mask = rng.random((n, n)) < 0.15
        np.fill_diagonal(mask, False)
        weights = rng.choice([0.5, 0.25, 0.125], size=(n, n))
        adj = np.where(mask, weights, 0.0)
        np.fill_diagonal(adj, 1.0)
        base = max_reliability_baseline(adj)
        simd = max_reliability_simd2(adj)
        np.testing.assert_array_equal(simd.values, base.values)

    def test_min_reliability_on_dag(self):
        adj = reliability_graph(SPEC, maximize=False)
        base = min_reliability_baseline(adj)
        simd = min_reliability_simd2(adj)
        np.testing.assert_allclose(simd.values, base.values, rtol=1e-2, atol=1e-4)

    def test_min_reliability_rejects_cycles(self):
        adj = np.full((3, 3), np.inf)
        np.fill_diagonal(adj, 1.0)
        adj[0, 1] = adj[1, 0] = 0.5
        with pytest.raises(ValueError, match="DAG"):
            min_reliability_simd2(adj)

    def test_bellman_ford_agreement(self):
        adj = capacity_graph(GraphSpec(20, 0.2, seed=5), maximize=True)
        ley = max_capacity_simd2(adj, method="leyzorek")
        bf = max_capacity_simd2(adj, method="bellman-ford")
        np.testing.assert_array_equal(ley.values, bf.values)


class TestMst:
    def test_simd2_matches_kruskal(self):
        weights = undirected_distance_graph(GraphSpec(28, 0.12, seed=21))
        base = mst_baseline(weights)
        simd = mst_simd2(weights)
        assert simd.edges == base.edges
        assert simd.total_weight == pytest.approx(base.total_weight)
        assert len(base.edges) == 27  # spanning tree of 28 vertices

    def test_forest_on_disconnected_graph(self):
        # Two components: SIMD² and Kruskal must both produce a forest.
        weights = np.full((6, 6), np.inf)
        np.fill_diagonal(weights, 0.0)
        weights[0, 1] = weights[1, 0] = 1.0
        weights[1, 2] = weights[2, 1] = 2.0
        weights[3, 4] = weights[4, 3] = 3.0
        weights[4, 5] = weights[5, 4] = 4.0
        base = mst_baseline(weights)
        simd = mst_simd2(weights)
        assert simd.edges == base.edges == {(0, 1), (1, 2), (3, 4), (4, 5)}

    def test_duplicate_weights_rejected(self):
        weights = np.full((3, 3), np.inf)
        np.fill_diagonal(weights, 0.0)
        weights[0, 1] = weights[1, 0] = 1.0
        weights[1, 2] = weights[2, 1] = 1.0
        with pytest.raises(ValueError, match="distinct"):
            mst_simd2(weights)

    def test_asymmetric_rejected(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            mst_baseline(weights)


class TestNanWeights:
    @pytest.mark.parametrize(
        "app, graph",
        [
            (apsp_simd2, distance_graph),
            (aplp_simd2, dag_distance_graph),
            (max_capacity_simd2, capacity_graph),
            (mst_simd2, undirected_distance_graph),
        ],
        ids=["apsp", "aplp", "max_capacity", "mst"],
    )
    def test_nan_edge_rejected(self, app, graph):
        # A NaN weight would spread along every path through it; the apps
        # reject it up front instead of returning a NaN "closure".
        weights = graph(GraphSpec(20, 0.2, seed=5))
        weights[2, 7] = weights[7, 2] = np.nan
        if app is aplp_simd2:
            weights[7, 2] = -np.inf  # keep the DAG's lower triangle empty
        with pytest.raises(ValueError, match=r"NaN \(first NaN at \[2, 7\]\)"):
            app(weights)


class TestGtc:
    def test_simd2_matches_bfs(self):
        adj = boolean_graph(SPEC, reflexive=False)
        base = gtc_baseline(adj)
        simd = gtc_simd2(adj)
        np.testing.assert_array_equal(simd.reachable, base.reachable)

    def test_leyzorek_default_and_blocked_agree(self):
        # 150 vertices: three blocked rounds, panel launches included.
        adj = boolean_graph(GraphSpec(150, 0.02, seed=5), reflexive=False)
        base = gtc_baseline(adj).reachable
        default = gtc_simd2(adj)
        blocked = gtc_simd2(adj, method="blocked")
        assert default.closure_result.method == "leyzorek"
        assert blocked.closure_result.iterations == 3
        np.testing.assert_array_equal(default.reachable, base)
        np.testing.assert_array_equal(blocked.reachable, base)

    def test_networkx_cross_check(self):
        import networkx as nx

        adj = boolean_graph(GraphSpec(15, 0.15, seed=2), reflexive=False)
        graph = nx.from_numpy_array(adj, create_using=nx.DiGraph)
        closure = nx.transitive_closure(graph, reflexive=True)
        expected = nx.to_numpy_array(closure, dtype=bool) | np.eye(15, dtype=bool)
        simd = gtc_simd2(adj)
        np.testing.assert_array_equal(simd.reachable, expected)

    def test_non_boolean_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            gtc_baseline(np.zeros((3, 3)))


class TestKnn:
    def test_simd2_matches_baseline(self):
        spec = PointCloudSpec(num_points=60, dimensions=12, seed=3)
        points, _ = gaussian_clusters(spec)
        queries = points[:20]
        references = points[20:]
        base = knn_baseline(queries, references, k=5)
        simd = knn_simd2(queries, references, k=5)
        np.testing.assert_array_equal(simd.distances, base.distances)
        np.testing.assert_array_equal(simd.indices, base.indices)

    def test_self_query_returns_self_first(self):
        spec = PointCloudSpec(num_points=30, dimensions=8, seed=1)
        points, _ = gaussian_clusters(spec)
        result = knn_simd2(points, points, k=1)
        np.testing.assert_array_equal(result.distances[:, 0], np.zeros(30))

    def test_k_out_of_range(self):
        points = np.zeros((4, 3))
        with pytest.raises(ValueError, match="out of range"):
            knn_baseline(points, points, k=5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            knn_simd2(np.zeros((4, 3)), np.zeros((4, 2)), k=1)


class TestEmulatedBackendEndToEnd:
    """Small end-to-end runs on the instruction-level emulator."""

    def test_apsp_on_emulator(self):
        adj = distance_graph(GraphSpec(20, 0.2, seed=13))
        base = apsp_baseline(adj)
        simd = apsp_simd2(adj, backend="emulate")
        np.testing.assert_array_equal(simd.distances, base.distances)

    def test_gtc_on_emulator(self):
        adj = boolean_graph(GraphSpec(20, 0.15, seed=13), reflexive=False)
        base = gtc_baseline(adj)
        simd = gtc_simd2(adj, backend="emulate")
        np.testing.assert_array_equal(simd.reachable, base.reachable)

    def test_knn_on_emulator(self):
        spec = PointCloudSpec(num_points=24, dimensions=8, seed=5)
        points, _ = gaussian_clusters(spec)
        base = knn_baseline(points, points, k=3)
        simd = knn_simd2(points, points, k=3, backend="emulate")
        np.testing.assert_array_equal(simd.indices, base.indices)
