"""Tests for the LaunchGraph and its builders (repro.sched.graph)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.lower import resolve_opcode
from repro.core import SEMIRINGS
from repro.resilience import FaultPlan, InjectedFault
from repro.runtime import use_context
from repro.sched import (
    GraphBuilder,
    SerialExecutor,
    ThreadPoolExecutor,
    batched_graph,
    split_k_graph,
)
from tests.conftest import make_ring_inputs

MIN_PLUS = SEMIRINGS["min-plus"]


class TestGraphBuilder:
    def test_split_k_launches_view_the_operands(self, rng):
        a, b, _ = make_ring_inputs(MIN_PLUS, 32, 32, 32, rng, with_c=False)
        with use_context() as ctx:
            graph = split_k_graph(
                ctx, resolve_opcode(MIN_PLUS), a, b, splits=2
            )
        # One independent launch per k partition; each one's operands are
        # views of the caller's A and B, never another launch's output.
        assert len(graph.nodes) == 2
        for node, (lo, hi) in zip(graph.nodes, [(0, 16), (16, 32)]):
            assert node.c is None
            assert np.shares_memory(node.a, a) and np.shares_memory(node.b, b)
            np.testing.assert_array_equal(node.a, a[:, lo:hi])
            np.testing.assert_array_equal(node.b, b[lo:hi])


class TestBuildTimeOrdinals:
    """Satellite regression: fault ordinals are fixed before execution."""

    def test_ordinals_reserved_in_node_order_at_build_time(self, rng):
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 48, 16, rng, with_c=False)
        plan = FaultPlan()
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            graph = split_k_graph(ctx, resolve_opcode(MIN_PLUS), a, b, splits=3)
        # Nothing has executed, yet the full fault schedule is assigned.
        assert plan.launches_seen == len(graph.nodes) == 3
        assert [node.fault_ordinal for node in graph.nodes] == [0, 1, 2]

    def test_degenerate_launches_claim_no_ordinal(self, rng):
        # k == 0 split-k degenerates to one empty-k launch; m > 0 and
        # n > 0 still hold, so it reserves — but an m == 0 batch does not.
        plan = FaultPlan()
        a3 = np.zeros((2, 0, 8))
        b3 = np.zeros((2, 8, 8))
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            graph = batched_graph(
                ctx, resolve_opcode(MIN_PLUS), a3, b3, None, 2
            )
        assert plan.launches_seen == 0
        assert len(graph.nodes) == 2
        assert all(node.fault_ordinal is None for node in graph.nodes)

    def test_threaded_run_injects_the_build_time_schedule(self, rng):
        """Drop ordinal 1: serial and threaded runs hit the same launch."""
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 48, 16, rng, with_c=False)
        for scheduler in (SerialExecutor(), ThreadPoolExecutor(max_workers=4)):
            plan = FaultPlan(drop=(1,))
            with use_context(backend="vectorized", fault_plan=plan) as ctx:
                graph = split_k_graph(
                    ctx, resolve_opcode(MIN_PLUS), a, b, splits=3
                )
                with pytest.raises(InjectedFault, match="dropped launch 1"):
                    scheduler.run(graph, context=ctx)
            assert plan.injected_drops == 1


class TestRecoveryDriver:
    """A launch node's policy is the one retry/check/fallback path."""

    def test_node_never_retries_a_permanent_error(self, rng):
        from repro.resilience import Recovery, RetryPolicy
        from repro.runtime import Trace
        from repro.runtime.kernels import OperandValidationError

        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 16, 16, rng, with_c=False)
        plan = FaultPlan()
        trace = Trace()
        greedy = RetryPolicy(max_retries=5, retry_on=(Exception,))
        with use_context(
            backend="vectorized", fault_plan=plan, trace=trace,
            recovery=Recovery(checked=False, retry=greedy),
        ) as ctx:
            builder = GraphBuilder(ctx, "node")
            builder.launch(
                resolve_opcode(MIN_PLUS),
                a,
                b,
                # A mis-shaped accumulator: a deterministic rejection.
                np.zeros((8, 16)),
            )
            with pytest.raises(OperandValidationError, match="accumulator shape"):
                SerialExecutor().run(builder.build(), context=ctx)
        assert plan.launches_seen == 1  # the build-time ordinal, no retry
        assert trace.events_of("retry") == []
