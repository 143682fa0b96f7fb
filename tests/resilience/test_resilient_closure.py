"""End-to-end tests of the composed resilient closure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import Simd2Device
from repro.resilience import FaultPlan, FaultSpec, resilient_closure
from repro.runtime import Trace, closure, use_context


def shortest_path_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.full((n, n), np.inf, dtype=np.float32)
    np.fill_diagonal(adj, 0.0)
    edges = rng.integers(0, n, (4 * n, 2))
    adj[edges[:, 0], edges[:, 1]] = rng.integers(1, 9, 4 * n).astype(np.float32)
    np.fill_diagonal(adj, 0.0)
    return adj


class TestSingleDevice:
    def test_clean_run_matches_plain_closure(self, rng):
        adj = shortest_path_graph(48, rng)
        clean = closure("min-plus", adj, max_iterations=30)
        res = resilient_closure("min-plus", adj, max_iterations=30)
        assert res.converged == clean.converged
        np.testing.assert_array_equal(res.matrix, clean.matrix)
        assert res.diagnostics is not None and res.diagnostics.healthy
        assert res.blacklist == frozenset()

    def test_recovers_from_transient_corruption(self, rng):
        adj = shortest_path_graph(48, rng)
        clean = closure("min-plus", adj, max_iterations=30)
        trace = Trace()
        plan = FaultPlan(seed=9, corrupt={1: FaultSpec(kind="nan")})
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            res = resilient_closure("min-plus", adj, max_iterations=30, context=ctx)
        np.testing.assert_array_equal(res.matrix, clean.matrix)
        summary = trace.summary()
        assert summary.corruptions_detected >= 1
        assert summary.retries >= 1


class TestMultiDevice:
    def test_device_kill_plus_corruption_bit_parity(self, rng):
        """The ISSUE's end-to-end proof, in test form: a seeded plan that
        corrupts a tile AND kills a device; the checked multi-device
        closure detects, retries, repartitions, and still produces a
        result bit-identical to the fault-free run."""
        adj = shortest_path_graph(64, rng)
        clean = closure("min-plus", adj, backend="emulate", max_iterations=30)
        trace = Trace()
        plan = FaultPlan(
            seed=11,
            corrupt={2: FaultSpec(kind="nan")},
            fail_devices=(0,),
        )
        devices = [Simd2Device() for _ in range(3)]
        with use_context(backend="emulate", fault_plan=plan, trace=trace) as ctx:
            res = resilient_closure(
                "min-plus", adj, devices=devices, context=ctx, max_iterations=30
            )
        np.testing.assert_array_equal(res.matrix, clean.matrix)
        assert res.converged == clean.converged
        assert res.blacklist == frozenset({0})
        summary = trace.summary()
        assert summary.device_failures == 1
        assert summary.repartitions == 1
        assert summary.corruptions_detected >= 1
        assert summary.retries >= 1
        assert plan.injected_corruptions >= 1
        assert plan.injected_device_failures == 1

    def test_blacklist_persists_across_iterations(self, rng):
        adj = shortest_path_graph(48, rng)
        plan = FaultPlan(fail_devices=(1,))
        devices = [Simd2Device() for _ in range(2)]
        with use_context(backend="emulate", fault_plan=plan) as ctx:
            res = resilient_closure(
                "min-plus", adj, devices=devices, context=ctx, max_iterations=30
            )
        # the dead device fails once; later iterations never ask it again
        assert plan.injected_device_failures == 1
        assert res.blacklist == frozenset({1})
        assert all(sh.device_index == 0 for sh in res.device_shares)

    def test_band_retries_spend_the_budget(self, rng):
        from repro.resilience import BudgetExhausted, ExecutionBudget

        adj = shortest_path_graph(32, rng)
        budget = ExecutionBudget(max_retries=0)
        plan = FaultPlan(seed=5, corrupt={1: FaultSpec(kind="nan")})
        with use_context(backend="emulate", fault_plan=plan, budget=budget) as ctx:
            with pytest.raises(BudgetExhausted, match="retry budget of 0"):
                resilient_closure(
                    "min-plus", adj, devices=[Simd2Device(), Simd2Device()],
                    context=ctx, max_iterations=30,
                )
        assert plan.injected_corruptions == 1
        assert budget.retries_spent == 1

    def test_fallback_with_devices_rejected(self, rng):
        from repro.resilience import FallbackChain, ResilienceError

        adj = shortest_path_graph(16, rng)
        plan = FaultPlan(drop=range(100))
        with use_context(backend="emulate", fault_plan=plan) as ctx:
            with pytest.raises(ResilienceError, match="devices=.*fallback="):
                resilient_closure(
                    "min-plus", adj, devices=[Simd2Device()], context=ctx,
                    fallback=FallbackChain(backends=("emulate", "vectorized")),
                )
        assert plan.launches_seen == 0

    def test_all_devices_dead_raises(self, rng):
        from repro.runtime import RuntimeError_

        adj = shortest_path_graph(32, rng)
        plan = FaultPlan(fail_devices=(0, 1))
        with use_context(backend="emulate", fault_plan=plan) as ctx:
            with pytest.raises(RuntimeError_, match="no surviving devices"):
                resilient_closure(
                    "min-plus", adj,
                    devices=[Simd2Device(), Simd2Device()],
                    context=ctx, max_iterations=30,
                )


class TestWatchdogIntegration:
    def test_unrecovered_nan_trips_watchdog(self, rng):
        adj = shortest_path_graph(32, rng)
        # Unchecked run: the injected NaN is never detected by checksums,
        # so it propagates — the watchdog must catch it instead.
        plan = FaultPlan(seed=3, corrupt={0: FaultSpec(kind="nan")})
        trace = Trace()
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            res = resilient_closure(
                "min-plus", adj, context=ctx, checked=False, max_iterations=30
            )
        assert res.diagnostics is not None
        assert res.diagnostics.reason == "nan_poisoning"
        assert not res.converged
        assert trace.summary().watchdog_trips == 1
