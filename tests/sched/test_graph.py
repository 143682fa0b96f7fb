"""Tests for the LaunchGraph IR and its builders (repro.sched.graph)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.lower import resolve_opcode
from repro.core import SEMIRINGS
from repro.resilience import FaultPlan, InjectedFault
from repro.runtime import use_context
from repro.sched import (
    GraphBuilder,
    GraphError,
    LaunchStep,
    Ref,
    SerialExecutor,
    ThreadPoolExecutor,
    batched_graph,
    split_k_graph,
)
from tests.conftest import make_ring_inputs

MIN_PLUS = SEMIRINGS["min-plus"]


class TestRef:
    def test_exactly_one_of_node_or_const(self):
        with pytest.raises(GraphError, match="exactly one"):
            Ref()
        with pytest.raises(GraphError, match="exactly one"):
            Ref(node=0, const=0)

    def test_window_narrows_once(self):
        ref = Ref(const=0).window(rows=(0, 16))
        assert ref.rows == (0, 16)
        with pytest.raises(GraphError, match="already windowed"):
            ref.window(rows=(16, 32))
        # a second axis is still free
        assert ref.window(cols=(0, 8)).cols == (0, 8)


class TestGraphBuilder:
    def test_constants_deduplicate_by_identity(self):
        with use_context() as ctx:
            builder = GraphBuilder(ctx, "test")
            a = np.zeros((4, 4))
            assert builder.constant(a) == builder.constant(a)
            assert builder.constant(a.copy()) != builder.constant(a)

    def test_shape_of_applies_windows(self):
        with use_context() as ctx:
            builder = GraphBuilder(ctx, "test")
            ref = builder.constant(np.zeros((32, 48)))
            assert builder.shape_of(ref) == (32, 48)
            assert builder.shape_of(ref.window(rows=(0, 16))) == (16, 48)
            assert builder.shape_of(ref.window(cols=(8, 20))) == (32, 12)

    def test_dependencies_follow_refs(self, rng):
        a, b, c = make_ring_inputs(MIN_PLUS, 32, 32, 32, rng)
        with use_context() as ctx:
            graph, out_ref, launch_refs = split_k_graph(
                ctx, resolve_opcode(MIN_PLUS), a, b, c, splits=2
            )
        assert len(launch_refs) == 2
        # the reduce node depends on both partial launches, in order
        assert out_ref.node is not None
        assert graph.dependencies(out_ref.node) == (0, 1)
        assert graph.launches == (0, 1)
        for index in graph.launches:
            assert graph.dependencies(index) == ()

    def test_reduce_rejects_empty_inputs(self):
        with use_context() as ctx:
            builder = GraphBuilder(ctx, "test")
            with pytest.raises(GraphError, match="at least one input"):
                builder.reduce(MIN_PLUS, ())


class TestBuildTimeOrdinals:
    """Satellite regression: fault ordinals are fixed before execution."""

    def test_ordinals_reserved_in_node_order_at_build_time(self, rng):
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 48, 16, rng, with_c=False)
        plan = FaultPlan()
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            graph, _, launch_refs = split_k_graph(
                ctx, resolve_opcode(MIN_PLUS), a, b, None, splits=3
            )
        # Nothing has executed, yet the full fault schedule is assigned.
        assert plan.launches_seen == len(launch_refs) == 3
        ordinals = [
            node.fault_ordinal
            for node in graph.nodes
            if isinstance(node, LaunchStep)
        ]
        assert ordinals == [0, 1, 2]

    def test_degenerate_launches_claim_no_ordinal(self, rng):
        # k == 0 split-k degenerates to one empty-k launch; m > 0 and
        # n > 0 still hold, so it reserves — but an m == 0 batch does not.
        plan = FaultPlan()
        a3 = np.zeros((2, 0, 8))
        b3 = np.zeros((2, 8, 8))
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            graph, launch_refs = batched_graph(
                ctx, resolve_opcode(MIN_PLUS), a3, b3, None, 2
            )
        assert plan.launches_seen == 0
        assert len(launch_refs) == 2
        assert all(
            node.fault_ordinal is None
            for node in graph.nodes
            if isinstance(node, LaunchStep)
        )

    def test_threaded_run_injects_the_build_time_schedule(self, rng):
        """Drop ordinal 1: serial and threaded runs hit the same launch."""
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 48, 16, rng, with_c=False)
        for scheduler in (SerialExecutor(), ThreadPoolExecutor(max_workers=4)):
            plan = FaultPlan(drop=(1,))
            with use_context(backend="vectorized", fault_plan=plan) as ctx:
                graph, _, _ = split_k_graph(
                    ctx, resolve_opcode(MIN_PLUS), a, b, None, splits=3
                )
                with pytest.raises(InjectedFault, match="dropped launch 1"):
                    scheduler.run(graph, context=ctx)
            assert plan.injected_drops == 1


class TestRecoveryDriver:
    """A launch node's policy is the one retry/check/fallback path."""

    def test_node_never_retries_a_permanent_error(self, rng):
        from repro.resilience import RetryPolicy
        from repro.runtime import Trace
        from repro.runtime.kernels import OperandValidationError

        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 16, 16, rng, with_c=False)
        plan = FaultPlan()
        trace = Trace()
        greedy = RetryPolicy(max_retries=5, retry_on=(Exception,))
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            builder = GraphBuilder(ctx, "node")
            builder.launch(
                resolve_opcode(MIN_PLUS),
                builder.constant(a),
                builder.constant(b),
                # A mis-shaped accumulator: a deterministic rejection.
                builder.constant(np.zeros((8, 16))),
                retry=greedy,
            )
            with pytest.raises(OperandValidationError, match="accumulator shape"):
                SerialExecutor().run(builder.build(), context=ctx)
        assert plan.launches_seen == 1  # the build-time ordinal, no retry
        assert trace.events_of("retry") == []
