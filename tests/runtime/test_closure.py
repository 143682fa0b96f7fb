"""Tests for closure iteration (Bellman-Ford / Leyzorek / convergence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.floyd_warshall import floyd_warshall
from repro.core import SemiringError
from repro.datasets import GraphSpec, distance_graph, reliability_graph
from repro.resilience import ExecutionBudget
from repro.runtime import ExecutionContext, closure, max_iterations_for
from repro.runtime.closure import BLOCK


def _path_graph_minplus(n: int) -> np.ndarray:
    """A directed path 0→1→…→n-1 with unit weights, min-plus encoded."""
    adj = np.full((n, n), np.inf)
    np.fill_diagonal(adj, 0.0)
    for i in range(n - 1):
        adj[i, i + 1] = 1.0
    return adj


def _expected_path_distances(n: int) -> np.ndarray:
    expected = np.full((n, n), np.inf, dtype=np.float32)
    for i in range(n):
        for j in range(i, n):
            expected[i, j] = float(j - i)
    return expected


class TestIterationBounds:
    def test_bounds(self):
        assert max_iterations_for("bellman-ford", 10) == 10
        assert max_iterations_for("leyzorek", 10) == 4
        assert max_iterations_for("leyzorek", 1) == 1
        assert max_iterations_for("bellman-ford", 0) == 1
        assert max_iterations_for("blocked", 64) == 1
        assert max_iterations_for("blocked", 65) == 2
        assert max_iterations_for("blocked", 768) == 12

    def test_unknown_method(self):
        with pytest.raises(SemiringError, match="unknown closure method"):
            max_iterations_for("dijkstra", 4)


class TestLeyzorek:
    def test_path_graph_distances(self):
        n = 12
        result = closure("min-plus", _path_graph_minplus(n), method="leyzorek")
        np.testing.assert_array_equal(result.matrix, _expected_path_distances(n))
        assert result.converged

    def test_iteration_count_is_logarithmic(self):
        # Path of length 11 (diameter 11): squaring needs ⌈log2(11)⌉ = 4
        # productive iterations plus one to observe the fixpoint.
        result = closure("min-plus", _path_graph_minplus(12), method="leyzorek")
        assert result.iterations <= max_iterations_for("leyzorek", 12) + 1

    def test_small_diameter_converges_fast(self):
        # A star graph has diameter 2 regardless of size.
        n = 20
        adj = np.full((n, n), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1:] = 1.0
        adj[1:, 0] = 1.0
        result = closure("min-plus", adj, method="leyzorek")
        assert result.converged
        assert result.iterations <= 3  # log2(diameter)=1, +1 fixpoint, slack 1


class TestBellmanFord:
    def test_matches_leyzorek(self):
        n = 9
        adj = _path_graph_minplus(n)
        bf = closure("min-plus", adj, method="bellman-ford")
        ley = closure("min-plus", adj, method="leyzorek")
        np.testing.assert_array_equal(bf.matrix, ley.matrix)

    def test_needs_linear_iterations_on_path(self):
        n = 9
        bf = closure("min-plus", _path_graph_minplus(n), method="bellman-ford")
        # Diameter n-1 = 8: BF relaxes one hop per iteration.
        assert bf.iterations >= n - 2
        assert bf.converged

    def test_random_graph_agreement(self):
        rng = np.random.default_rng(17)
        n = 24
        adj = np.where(rng.random((n, n)) < 0.2, rng.integers(1, 9, (n, n)), np.inf).astype(float)
        np.fill_diagonal(adj, 0.0)
        bf = closure("min-plus", adj, method="bellman-ford")
        ley = closure("min-plus", adj, method="leyzorek")
        np.testing.assert_array_equal(bf.matrix, ley.matrix)


class TestConvergencePolicy:
    def test_without_check_runs_worst_case(self):
        n = 16
        adj = _path_graph_minplus(n)
        result = closure("min-plus", adj, method="leyzorek", convergence_check=False)
        assert result.iterations == max_iterations_for("leyzorek", n)
        assert result.convergence_checks == 0
        assert not result.converged
        np.testing.assert_array_equal(result.matrix, _expected_path_distances(n))

    def test_with_check_counts_checks(self):
        result = closure("min-plus", _path_graph_minplus(8), method="leyzorek")
        assert result.convergence_checks == result.iterations

    def test_max_iterations_cap(self):
        result = closure(
            "min-plus", _path_graph_minplus(16), method="bellman-ford", max_iterations=2
        )
        assert result.iterations == 2
        assert not result.converged
        assert result.matrix[0, 5] == np.inf  # 5 hops not yet relaxed after 2

    def test_kernel_stats_accumulate(self):
        result = closure("min-plus", _path_graph_minplus(20), method="leyzorek")
        assert len(result.kernel_stats) == result.iterations
        per_iter = result.kernel_stats[0].mmo_instructions
        assert result.total_mmo_instructions == per_iter * result.iterations


class TestOtherRings:
    def test_or_and_transitive_closure(self):
        n = 6
        adj = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(adj, True)
        for i in range(n - 1):
            adj[i, i + 1] = True
        result = closure("or-and", adj, method="leyzorek")
        np.testing.assert_array_equal(result.matrix, np.triu(np.ones((n, n), bool)))

    def test_max_min_capacity_closure(self):
        # 0 -5- 1 -3- 2: capacity(0,2) = min(5,3) = 3 under max-min.
        adj = np.full((3, 3), -np.inf)
        np.fill_diagonal(adj, np.inf)  # a node reaches itself with ∞ capacity
        adj[0, 1] = adj[1, 0] = 5.0
        adj[1, 2] = adj[2, 1] = 3.0
        result = closure("max-min", adj, method="leyzorek")
        assert result.matrix[0, 2] == 3.0


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(SemiringError, match="square"):
            closure("min-plus", np.zeros((2, 3)))

    def test_bad_method_rejected(self):
        with pytest.raises(SemiringError, match="unknown closure method"):
            closure("min-plus", np.zeros((2, 2)), method="warshall")

    def test_bad_max_iterations(self):
        with pytest.raises(SemiringError, match="must be positive"):
            closure("min-plus", np.zeros((2, 2)), max_iterations=0)


class TestNanFixpoint:
    """Regression: a NaN-poisoned matrix must still terminate.

    ``np.array_equal`` treats ``NaN != NaN``, so the old convergence check
    could never see a fixpoint containing NaN and spun to the iteration
    cap.  ``matrices_equal`` (NaN == NaN) fixes that.
    """

    def test_nan_fixpoint_converges(self):
        from repro.runtime import matrices_equal

        adj = _path_graph_minplus(8).astype(np.float32)
        adj[0, 1] = np.nan
        result = closure("min-plus", adj, max_iterations=100)
        assert result.converged
        assert result.iterations < 100
        # the fixpoint it stopped at really is a fixpoint
        again = closure(
            "min-plus", result.matrix, max_iterations=2, convergence_check=True
        )
        assert matrices_equal(again.matrix, result.matrix)

    def test_matrices_equal_semantics(self):
        from repro.runtime import matrices_equal

        nan_mat = np.array([[np.nan, 1.0]], dtype=np.float32)
        assert matrices_equal(nan_mat, nan_mat.copy())
        assert not matrices_equal(nan_mat, np.array([[np.nan, 2.0]]))
        bools = np.array([[True, False]])
        assert matrices_equal(bools, bools.copy())
        assert not matrices_equal(bools, ~bools)


class TestWatchdogIntegration:
    def test_healthy_run_reports_diagnostics(self):
        result = closure("min-plus", _path_graph_minplus(8), watchdog=True)
        assert result.diagnostics is not None
        assert result.diagnostics.healthy
        assert result.diagnostics.describe() == "closure healthy"

    def test_no_watchdog_means_no_diagnostics(self):
        result = closure("min-plus", _path_graph_minplus(8))
        assert result.diagnostics is None

    def test_nan_appearing_mid_run_trips(self, rng):
        from repro.resilience import FaultPlan, FaultSpec
        from repro.runtime import Trace, use_context

        adj = _path_graph_minplus(32).astype(np.float32)
        trace = Trace()
        plan = FaultPlan(seed=6, corrupt={1: FaultSpec(kind="nan")})
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            result = closure(
                "min-plus", adj, context=ctx, watchdog=True, max_iterations=50
            )
        assert result.diagnostics is not None
        assert result.diagnostics.reason == "nan_poisoning"
        assert not result.converged
        assert trace.summary().watchdog_trips == 1

    def test_preconfigured_watchdog_accepted(self):
        from repro.resilience import ClosureWatchdog

        guard = ClosureWatchdog("min-plus", check_oscillation=False)
        result = closure("min-plus", _path_graph_minplus(6), watchdog=guard)
        assert result.diagnostics is not None and result.diagnostics.healthy


def _fw_prefix(adjacency: np.ndarray, stop: int) -> np.ndarray:
    """Min-plus Floyd–Warshall over the intermediates ``0 … stop − 1`` only."""
    dist = np.asarray(adjacency, dtype=np.float32)
    for k in range(stop):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


class TestBlocked:
    ADJ = distance_graph(GraphSpec(200, 0.03, 4))

    def _assert_fw_prefix(self, result) -> None:
        stop = min(200, BLOCK * result.iterations)
        np.testing.assert_array_equal(result.matrix, _fw_prefix(self.ADJ, stop))
        assert not result.converged

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_round_cap_leaves_a_floyd_warshall_prefix(self, rounds):
        result = closure("min-plus", self.ADJ, method="blocked", max_iterations=rounds)
        assert result.iterations == rounds
        self._assert_fw_prefix(result)

    @pytest.mark.parametrize("launches, rounds", [(10, 1), (20, 3)])
    def test_brownout_leaves_a_floyd_warshall_prefix(self, launches, rounds):
        ctx = ExecutionContext(budget=ExecutionBudget(max_launches=launches))
        result = closure(
            "min-plus", self.ADJ, method="blocked", context=ctx, on_budget="brownout"
        )
        assert result.diagnostics is not None
        assert result.diagnostics.reason == "budget_exhausted"
        assert result.iterations == rounds  # the budget ran out mid-round
        self._assert_fw_prefix(result)

    def test_full_run_is_the_closure(self):
        result = closure("min-plus", self.ADJ, method="blocked")
        assert result.converged
        assert result.iterations == 4
        assert result.mmo_calls == len(result.kernel_stats)
        np.testing.assert_array_equal(result.matrix, _fw_prefix(self.ADJ, 200))

    @pytest.mark.parametrize("check", [True, False])
    def test_one_block_issues_leyzorek_launches(self, check):
        adj = _path_graph_minplus(BLOCK)
        ley = closure("min-plus", adj, method="leyzorek", convergence_check=check)
        blocked = closure("min-plus", adj, method="blocked", convergence_check=check)
        np.testing.assert_array_equal(blocked.matrix, ley.matrix)
        assert blocked.iterations == 1
        assert blocked.kernel_stats == ley.kernel_stats
        assert blocked.convergence_checks == ley.convergence_checks
        assert blocked.converged == ley.converged

    def test_without_check_squares_each_block_log_times(self):
        result = closure(
            "min-plus", _path_graph_minplus(100), method="blocked",
            convergence_check=False,
        )
        # Blocks of 64 and 36 vertices: 6 squarings each, plus two panel
        # launches per round.
        assert result.mmo_calls == (6 + 2) * 2
        assert result.convergence_checks == 0
        assert not result.converged
        np.testing.assert_array_equal(result.matrix, _expected_path_distances(100))

    def test_positive_max_plus_cycle_never_converges(self):
        adj = np.full((70, 70), -np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 1.0
        result = closure("max-plus", adj, method="blocked")
        assert not result.converged

    @pytest.mark.parametrize("ring", ["plus-mul", "plus-norm"])
    def test_non_idempotent_ring_rejected_before_any_launch(self, ring):
        from repro.runtime import Trace

        trace = Trace()
        with pytest.raises(SemiringError, match="idempotent"):
            closure(ring, np.eye(4), method="blocked", context=ExecutionContext(trace=trace))
        assert trace.records == []

    def test_validate_inputs_covers_the_whole_initial_matrix(self):
        from repro.runtime.kernels import OperandValidationError

        adj = _path_graph_minplus(100)
        adj[90, 80] = np.nan  # outside round 0's block rows and columns
        with pytest.raises(OperandValidationError, match="NaN"):
            closure("min-plus", adj, method="blocked", validate_inputs=True)

    @pytest.mark.parametrize(
        "ring, maximize", [("max-mul", True), ("min-mul", False)]
    )
    @pytest.mark.parametrize("n", [65, 100, 200])
    def test_mul_rings_stay_within_documented_tolerance(self, ring, maximize, n):
        # Products are not fp16-exact, so no method is bit-exact; the
        # closure docstring bounds the relative error at 1e-2 while path
        # values stay in fp16's normal range.
        adj = reliability_graph(GraphSpec(n, 0.05, 0), maximize=maximize)
        expected, _ = floyd_warshall(ring, adj)
        result = closure(ring, adj, method="blocked")
        paths = np.isfinite(expected) & (expected > 0)
        np.testing.assert_array_equal(np.isfinite(result.matrix) & (result.matrix > 0), paths)
        assert expected[paths].min() >= 2.0**-14
        error = np.abs(result.matrix[paths] - expected[paths]) / expected[paths]
        assert error.max() <= 1e-2
