"""Tests for the lifecycle hook pipeline (``repro.hooks``).

Covers the two suites ISSUE 6 calls for: cross-entry-point validation
parity (every dispatch entry point rejects the same poisoned operands
with the same :class:`OperandValidationError`, operand named) and hook
ordering/teardown (hooks fire in registration order at each point; a
raising hook never orphans a launch record).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import PlanCache, grid_for, lower_mmo
from repro.compile.lower import resolve_opcode
from repro.core import SEMIRINGS
from repro.hooks import Hook, emit_event
from repro.hw import Simd2Device
from repro.runtime import (
    ExecutionContext,
    OperandValidationError,
    Trace,
    batched_mmo,
    execute_compiled,
    mmo_tiled,
    mmo_tiled_multi_device,
    mmo_tiled_split_k,
    resolve_context,
)
from tests.conftest import make_ring_inputs


# ----------------------------------------------------------------------
# Entry-point launchers: same (ring, a, b, c) surface for every dispatch
# path, so the parity suite can assert identical rejections.


def _launch_mmo_tiled(ring, a, b, c, **kwargs):
    return mmo_tiled(ring, a, b, c, **kwargs)


def _launch_execute_compiled(ring, a, b, c, **kwargs):
    ctx = resolve_context(kwargs.pop("context", None))
    opcode = resolve_opcode(ring)
    m, k = a.shape
    n = b.shape[1]
    compiled = lower_mmo(
        opcode, *grid_for(m, n, k), has_accumulator=c is not None
    )
    return execute_compiled(compiled, a, b, c, context=ctx, **kwargs)


def _launch_split_k(ring, a, b, c, **kwargs):
    return mmo_tiled_split_k(ring, a, b, c, splits=2, **kwargs)


def _launch_batched(ring, a, b, c, **kwargs):
    return batched_mmo(ring, a, b, c, **kwargs)


def _launch_multi_device(ring, a, b, c, **kwargs):
    devices = [Simd2Device(sm_count=2), Simd2Device(sm_count=2)]
    return mmo_tiled_multi_device(ring, a, b, c, devices=devices, **kwargs)


ENTRY_POINTS = {
    "mmo_tiled": _launch_mmo_tiled,
    "execute_compiled": _launch_execute_compiled,
    "mmo_tiled_split_k": _launch_split_k,
    "batched_mmo": _launch_batched,
    "mmo_tiled_multi_device": _launch_multi_device,
}


class TestValidationParity:
    """Satellite 5: one validation behaviour across every entry point."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("operand", ["A", "B", "C"])
    def test_nan_rejected_with_operand_named(self, entry, operand, rng):
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        {"A": a, "B": b, "C": c}[operand][3, 5] = np.nan
        with pytest.raises(
            OperandValidationError, match=f"operand {operand}.*NaN"
        ):
            ENTRY_POINTS[entry]("min-plus", a, b, c)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_opposite_inf_rejected_with_operand_named(self, entry, rng):
        # min-plus identity is +inf; -inf maps to NaN against the padding.
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        b[1, 2] = -np.inf
        with pytest.raises(OperandValidationError, match=r"operand B.*-inf"):
            ENTRY_POINTS[entry]("min-plus", a, b, c)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_opt_out_lets_nan_through(self, entry, rng):
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        a[3, 5] = np.nan
        out = ENTRY_POINTS[entry]("min-plus", a, b, c, validate_inputs=False)
        d = out[0]
        assert np.isnan(np.asarray(d)).any()

    def test_identity_inf_accepted_everywhere(self, rng):
        # +inf on min-plus means "no edge" — every entry point accepts it.
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        a[1, 2] = np.inf
        for entry, launch in ENTRY_POINTS.items():
            launch("min-plus", a, b, c)


# ----------------------------------------------------------------------
# Hook ordering and teardown.


class RecordingHook(Hook):
    """Logs every firing as ``(tag, point)`` into a shared list."""

    def __init__(self, tag: str, log: list):
        self.name = f"recording-{tag}"
        self.tag = tag
        self.log = log

    def post_compile(self, context, api, compiled, cache_hit):
        self.log.append((self.tag, "post_compile"))

    def pre_execute(self, launch):
        self.log.append((self.tag, "pre_execute"))

    def post_execute(self, launch):
        self.log.append((self.tag, "post_execute"))


class RaisingHook(Hook):
    name = "raising"

    def __init__(self, point: str):
        self.point = point

    def pre_execute(self, launch):
        if self.point == "pre_execute":
            raise RuntimeError("hook boom")

    def post_execute(self, launch):
        if self.point == "post_execute":
            raise RuntimeError("hook boom")


class TestHookOrder:
    def test_custom_hooks_fire_in_registration_order(self, rng):
        log: list = []
        ctx = ExecutionContext(
            trace=Trace(),
            plan_cache=PlanCache(),
            hooks=(RecordingHook("one", log), RecordingHook("two", log)),
        )
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        mmo_tiled("min-plus", a, b, c, context=ctx)
        for point in ("post_compile", "pre_execute", "post_execute"):
            fired = [tag for tag, p in log if p == point]
            assert fired == ["one", "two"], point
        # Points themselves fire in lifecycle order.
        points = [p for _, p in log]
        assert points.index("pre_execute") > points.index("post_compile")
        assert points.index("post_execute") > points.index("pre_execute")

    def test_builtin_validation_fires_before_custom_hooks(self, rng):
        # The entry point validates before it opens the launch: a poisoned
        # operand raises before any custom pre_execute observes it.
        log: list = []
        ctx = ExecutionContext(
            trace=Trace(), hooks=(RecordingHook("late", log),)
        )
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        a[0, 0] = np.nan
        with pytest.raises(OperandValidationError):
            mmo_tiled("min-plus", a, b, c, context=ctx)
        assert ("late", "pre_execute") not in log

    def test_trace_identical_with_and_without_custom_hooks(self, rng):
        # Passive extra hooks must not perturb what the trace records.
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 48, 32, 16, rng)
        plain, hooked = Trace(), Trace()
        mmo_tiled("min-plus", a, b, c, context=ExecutionContext(trace=plain))
        mmo_tiled(
            "min-plus", a, b, c,
            context=ExecutionContext(
                trace=hooked, hooks=(RecordingHook("x", []),)
            ),
        )
        (r0,), (r1,) = plain.records, hooked.records
        assert (r0.api, r0.backend, r0.ring, r0.opcode) == (
            r1.api, r1.backend, r1.ring, r1.opcode
        )
        assert r0.shape == r1.shape and r0.tiles == r1.tiles
        assert r0.cycle_estimate == r1.cycle_estimate


class TestHookTeardown:
    @pytest.mark.parametrize("backend", ["vectorized", "auto"])
    def test_rejected_launch_compiles_and_plans_nothing(self, backend, rng):
        trace = Trace()
        ctx = ExecutionContext(backend=backend, trace=trace, plan_cache=PlanCache())
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        a[3, 5] = np.nan
        with pytest.raises(OperandValidationError, match="operand A.*NaN"):
            mmo_tiled("min-plus", a, b, c, context=ctx)
        assert trace.compiles == []
        assert trace.plans == []
        assert len(trace) == 0

    def test_raising_pre_execute_leaves_no_orphan_record(self, rng):
        trace = Trace()
        ctx = ExecutionContext(
            trace=trace, hooks=(RaisingHook("pre_execute"),)
        )
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        with pytest.raises(RuntimeError, match="hook boom"):
            mmo_tiled("min-plus", a, b, c, context=ctx)
        assert len(trace) == 0  # record absent, not half-written

    def test_raising_post_execute_keeps_complete_record(self, rng):
        # TraceHook registers before custom hooks, so the record is fully
        # written by the time a later post_execute hook raises.
        trace = Trace()
        ctx = ExecutionContext(
            trace=trace, hooks=(RaisingHook("post_execute"),)
        )
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        with pytest.raises(RuntimeError, match="hook boom"):
            mmo_tiled("min-plus", a, b, c, context=ctx)
        assert len(trace) == 1
        rec = trace.records[0]
        assert rec.api == "mmo_tiled" and rec.shape == (32, 32, 16)
        assert rec.kernel_stats is not None and rec.wall_time_s >= 0.0


# ----------------------------------------------------------------------
# Custom-hook metering, hot path, and the event channel.


class TestCacheStatsHook:
    def test_context_meters_plan_cache_hits(self, rng):
        # A Trace on the context meters that context's compile traffic.
        trace = Trace()
        ctx = ExecutionContext(plan_cache=PlanCache(), trace=trace)
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        mmo_tiled("min-plus", a, b, c, context=ctx)
        mmo_tiled("min-plus", a, b, c, context=ctx)
        assert [record.cache_hit for record in trace.compiles] == [False, True]
        assert trace.summary().compile_requests == 2


class TestHotPath:
    def test_pipeline_is_cached_on_the_context(self):
        ctx = ExecutionContext()
        assert ctx.pipeline is ctx.pipeline

    def test_a_recovery_copy_shares_the_pipeline(self):
        # No hook depends on the policy, so a per-call recovery copy
        # (resilient_mmo's) reuses the pipeline; any other field rebuilds.
        from repro.resilience import Recovery

        ctx = ExecutionContext(trace=Trace())
        assert ctx.replace(recovery=Recovery()).pipeline is ctx.pipeline
        assert ctx.replace(recovery=None, trace=None).pipeline.hooks == ()

    def test_default_pipeline_dispatches_launchless(self, rng):
        # No trace, no faults: the pipeline is empty and begin_launch
        # returns None instead of a Launch carrier.
        ctx = resolve_context(None)
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        launch = ctx.pipeline.begin_launch(
            ctx, "mmo_tiled", resolve_opcode("min-plus"), a, b, c
        )
        assert launch is None

    def test_traced_pipeline_allocates_a_launch(self, rng):
        ctx = resolve_context(ExecutionContext(trace=Trace()))
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        launch = ctx.pipeline.begin_launch(
            ctx, "mmo_tiled", resolve_opcode("min-plus"), a, b, c
        )
        assert launch is not None and launch.api == "mmo_tiled"


class EventSink(Hook):
    name = "event-sink"

    def __init__(self):
        self.events = []

    def on_event(self, context, event):
        self.events.append(event)


class TestEventChannel:
    def test_custom_on_event_hook_receives_events(self):
        sink = EventSink()
        ctx = ExecutionContext(hooks=(sink,))
        emit_event(ctx, kind="watchdog", api="test", detail="tripped")
        (event,) = sink.events
        assert event.kind == "watchdog" and event.api == "test"
        assert event.backend == ctx.backend

    def test_emit_event_without_listeners_is_a_noop(self):
        emit_event(
            ExecutionContext(), kind="watchdog", api="test", detail="x"
        )

    def test_trace_and_custom_sink_both_observe(self):
        sink, trace = EventSink(), Trace()
        ctx = ExecutionContext(trace=trace, hooks=(sink,))
        emit_event(
            ctx, kind="fallback", api="test", backend="emulate", detail="d"
        )
        assert len(sink.events) == 1
        (event,) = trace.events_of("fallback")
        assert event.backend == "emulate"
