"""ExecutionContext semantics and per-launch trace reconciliation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import list_backends
from repro.compile import PlanCache
from repro.hw.device import Simd2Device
from repro.runtime import (
    ExecutionContext,
    HostRuntime,
    Trace,
    TraceSummary,
    batched_mmo,
    closure,
    default_context,
    mmo_tiled,
    mmo_tiled_multi_device,
    mmo_tiled_split_k,
    resolve_context,
    use_context,
)
from repro.timing.cycles import kernel_cycle_estimate

from tests.conftest import make_ring_inputs


class TestExecutionContext:
    def test_defaults(self):
        ctx = default_context()
        assert ctx.backend == "vectorized"
        assert ctx.device is None
        assert ctx.plan_cache is None
        assert ctx.trace is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            default_context().backend = "emulate"

    def test_replace_returns_new_context(self):
        base = ExecutionContext()
        other = base.replace(backend="emulate")
        assert base.backend == "vectorized"
        assert other.backend == "emulate"

    def test_use_context_installs_and_restores(self):
        assert default_context().backend == "vectorized"
        with use_context(backend="emulate") as ctx:
            assert ctx.backend == "emulate"
            assert default_context() is ctx
            cache = PlanCache()
            with use_context(plan_cache=cache) as inner:
                # Nested overrides compose on the installed context.
                assert inner.backend == "emulate"
                assert inner.plan_cache is cache
            assert default_context() is ctx
        assert default_context().backend == "vectorized"

    def test_use_context_restores_on_error(self):
        with pytest.raises(ValueError, match="boom"):
            with use_context(backend="emulate"):
                raise ValueError("boom")
        assert default_context().backend == "vectorized"

    def test_resolve_precedence_keywords_over_context(self):
        cache = PlanCache()
        base = ExecutionContext(backend="emulate", plan_cache=cache)
        resolved = resolve_context(base, backend="sparse")
        assert resolved.backend == "sparse"
        assert resolved.plan_cache is cache  # untouched fields survive

    def test_resolve_defaults_to_ambient(self):
        with use_context(backend="sparse"):
            assert resolve_context().backend == "sparse"
        assert resolve_context().backend == "vectorized"


class TestAmbientDispatch:
    def test_ambient_backend_routes_mmo(self, rng):
        a = rng.integers(0, 5, (6, 7)).astype(float)
        b = rng.integers(0, 5, (7, 4)).astype(float)
        with use_context(backend="sparse"):
            _, stats = mmo_tiled("plus-mul", a, b)
        assert stats.spgemm is not None

    def test_explicit_backend_overrides_ambient(self, rng):
        a = rng.integers(0, 5, (6, 7)).astype(float)
        b = rng.integers(0, 5, (7, 4)).astype(float)
        with use_context(backend="sparse"):
            _, stats = mmo_tiled("plus-mul", a, b, backend="emulate")
        assert stats.spgemm is None
        assert stats.execution is not None

    def test_ambient_device_used_by_emulate(self):
        device = Simd2Device(sm_count=2)
        a = np.ones((4, 4))
        with use_context(backend="emulate", device=device):
            mmo_tiled("plus-mul", a, a)
        assert device.kernel_launches == 1

    def test_device_ignored_by_vectorized(self):
        device = Simd2Device(sm_count=2)
        a = np.ones((4, 4))
        _, stats = mmo_tiled("plus-mul", a, a, backend="vectorized", device=device)
        assert device.kernel_launches == 0
        assert stats.execution is None

    def test_apps_pick_up_ambient_backend(self):
        from repro.apps import apsp_simd2
        from repro.datasets import GraphSpec, distance_graph

        adjacency = distance_graph(
            GraphSpec(num_vertices=12, edge_probability=0.3, seed=5)
        )
        trace = Trace()
        with use_context(backend="sparse", trace=trace):
            result = apsp_simd2(adjacency)
        assert len(trace) > 0
        assert all(rec.backend == "sparse" for rec in trace)
        reference = np.asarray(
            __import__("repro.apps", fromlist=["apsp_baseline"])
            .apsp_baseline(adjacency)
            .distances
        )
        np.testing.assert_array_equal(result.distances, reference)


class TestLaunchRecords:
    def test_mmo_tiled_records_launch(self, ring, rng):
        a, b, c = make_ring_inputs(ring, 20, 33, 17, rng)
        trace = Trace()
        with use_context(trace=trace):
            _, stats = mmo_tiled(ring, a, b, c)
        assert len(trace) == 1
        rec = trace.records[0]
        assert rec.api == "mmo_tiled"
        assert rec.backend == "vectorized"
        assert rec.ring == ring.name
        assert rec.shape == (20, 17, 33)
        assert rec.tiles == (stats.tiles_m, stats.tiles_n, stats.tiles_k)
        # The acceptance invariant: counts reconcile with the tile grid.
        assert rec.mmo_instructions == stats.tiles_m * stats.tiles_n * stats.tiles_k
        assert rec.wall_time_s >= 0.0
        expected_cycles = kernel_cycle_estimate(
            stats, boolean=ring.is_boolean()
        ).total
        assert rec.cycle_estimate == expected_cycles

    def test_closure_records_reconcile(self):
        from repro.datasets import GraphSpec, distance_graph

        adjacency = distance_graph(
            GraphSpec(num_vertices=24, edge_probability=0.25, seed=11)
        )
        trace = Trace()
        with use_context(trace=trace):
            result = closure("min-plus", adjacency)
        assert len(trace) == result.mmo_calls
        for rec in trace:
            assert rec.api == "closure"
            assert (
                rec.mmo_instructions
                == rec.tiles[0] * rec.tiles[1] * rec.tiles[2]
            )
        assert (
            sum(rec.mmo_instructions for rec in trace)
            == result.total_mmo_instructions
        )

    def test_every_backend_records(self, rng):
        from repro.backends import get_backend

        a = rng.integers(0, 5, (9, 8)).astype(float)
        b = rng.integers(0, 5, (8, 7)).astype(float)
        for backend in list_backends():
            trace = Trace()
            with use_context(backend=backend, trace=trace):
                _, stats = mmo_tiled("min-plus", a, b)
            planning = getattr(get_backend(backend), "select_backend", None)
            if planning is not None:
                # Planning backends record the concrete delegate, plus one
                # PlanRecord for the decision itself.
                assert [rec.backend for rec in trace] != [backend]
                assert len(trace.plans) == 1
                assert trace.plans[0].backend == trace.records[0].backend
            else:
                assert [rec.backend for rec in trace] == [backend]
            assert trace.records[0].kernel_stats is stats

    def test_split_k_and_batched_and_multidevice_record_api(self):
        a = np.ones((4, 20))
        b = np.ones((20, 4))
        trace = Trace()
        with use_context(trace=trace):
            mmo_tiled_split_k("plus-mul", a, b, splits=2)
            batched_mmo("plus-mul", np.stack([a, a]), np.stack([b, b]))
            mmo_tiled_multi_device(
                "plus-mul", a, b,
                devices=[Simd2Device(), Simd2Device()], backend="vectorized",
            )
        apis = [rec.api for rec in trace]
        assert apis.count("mmo_tiled_split_k") == 2
        assert apis.count("batched_mmo") == 2
        assert apis.count("mmo_tiled_multi_device") == 1

    def test_empty_output_launch_recorded(self):
        trace = Trace()
        with use_context(trace=trace):
            mmo_tiled("plus-mul", np.ones((0, 3)), np.ones((3, 2)))
        assert len(trace) == 1
        assert trace.records[0].mmo_instructions == 0

    def test_no_trace_no_records(self):
        # The default context has no sink: nothing observable happens.
        _, stats = mmo_tiled("plus-mul", np.ones((4, 4)), np.ones((4, 4)))
        assert stats.mmo_instructions == 1

    def test_host_runtime_traces_through_context(self):
        trace = Trace()
        runtime = HostRuntime(context=ExecutionContext(backend="emulate", trace=trace))
        runtime.upload("a", np.ones((8, 8)))
        runtime.run_mmo("plus-mul", "a", "a", None, "out")
        assert len(trace) == 1
        assert trace.records[0].backend == "emulate"
        assert trace.records[0].execution is not None


class TestTraceSummary:
    def test_aggregates(self):
        a = np.ones((20, 33))
        b = np.ones((33, 17))
        trace = Trace()
        with use_context(trace=trace):
            _, s1 = mmo_tiled("plus-mul", a, b)
            _, s2 = mmo_tiled("min-plus", a, b, backend="sparse")
        summary = trace.summary()
        assert summary.launches == 2
        assert summary.by_backend == {"vectorized": 1, "sparse": 1}
        assert summary.by_ring == {"plus-mul": 1, "min-plus": 1}
        assert summary.mmo_instructions == s1.mmo_instructions + s2.mmo_instructions
        assert summary.unit_ops == s1.unit_ops + s2.unit_ops
        assert summary.spgemm_products == s2.spgemm.products
        assert summary.wall_time_s >= 0.0
        row = summary.as_row()
        assert row["launches"] == 2
        assert row["backends"] == "sparse+vectorized"

    def test_empty_summary(self):
        summary = TraceSummary.from_records([])
        assert summary.launches == 0
        assert summary.mmo_instructions == 0
        assert summary.as_row()["backends"] == "-"

    def test_render_trace(self):
        from repro.bench import render_trace

        trace = Trace()
        with use_context(trace=trace):
            mmo_tiled("plus-mul", np.ones((4, 4)), np.ones((4, 4)))
        text = render_trace(trace, title="T")
        assert text.splitlines()[0] == "T"
        assert "mmo_tiled" in text
        assert "TOTAL" in text

    def test_clear(self):
        trace = Trace()
        with use_context(trace=trace):
            mmo_tiled("plus-mul", np.ones((4, 4)), np.ones((4, 4)))
        trace.clear()
        assert len(trace) == 0


class TestResilienceEvents:
    def test_summary_counts_events_by_kind(self):
        from repro.runtime import ResilienceEvent

        trace = Trace()
        trace.record_event(ResilienceEvent("retry", "x", "vectorized", "d", attempt=1))
        trace.record_event(ResilienceEvent("retry", "x", "vectorized", "d", attempt=2))
        trace.record_event(ResilienceEvent("watchdog", "closure", "emulate", "d"))
        summary = trace.summary()
        assert summary.by_event == {"retry": 2, "watchdog": 1}
        assert summary.retries == 2
        assert summary.watchdog_trips == 1
        assert summary.resilience_events == 3
        assert summary.as_row()["resilience_events"] == 3
        assert trace.events_of("retry")[0].attempt == 1

    def test_clear_drops_events(self):
        from repro.runtime import ResilienceEvent

        trace = Trace()
        trace.record_event(ResilienceEvent("retry", "x", "vectorized", "d"))
        trace.clear()
        assert trace.events == []

    def test_render_trace_appends_event_table(self):
        from repro.bench import render_trace
        from repro.runtime import ResilienceEvent

        trace = Trace()
        with use_context(trace=trace):
            mmo_tiled("plus-mul", np.ones((4, 4)), np.ones((4, 4)))
        trace.record_event(
            ResilienceEvent(
                "corruption_detected", "checked_mmo", "vectorized",
                "suspect tiles [(0, 0)]",
            )
        )
        text = render_trace(trace, title="T")
        assert "resilience events (1)" in text
        assert "corruption_detected" in text
        # a bare record list still renders without an event section
        assert "resilience events" not in render_trace(trace.records)
