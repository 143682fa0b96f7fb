"""Cancellation races and scheduler-seam deadlines.

Both executors check the context's token and budget before each launch
starts: pending launches never start, in-flight launches drain, and the
typed error reports exactly which launch indices ran.  These tests pin
the race behaviour — a cancellation landing at any point must never
deadlock the thread pool, the serial completed set is a launch-order
prefix, and a stop that trips after the last launch started lets the
entry point return its combined result.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.compile.lower import resolve_opcode
from repro.core import SEMIRINGS
from repro.hooks.pipeline import Hook
from repro.resilience import (
    CancellationToken,
    DeadlineExceeded,
    ExecutionBudget,
    OperationCancelled,
    VirtualClock,
)
from repro.runtime import use_context
from repro.runtime.batched import batched_mmo
from repro.runtime.kernels import mmo_tiled_split_k
from repro.sched import (
    SerialExecutor,
    ThreadPoolExecutor,
    batched_graph,
    split_k_graph,
)
from tests.conftest import make_ring_inputs

MIN_PLUS = SEMIRINGS["min-plus"]


class CancelAfter(Hook):
    """Cancel the token once ``count`` launches have completed."""

    def __init__(self, token: CancellationToken, count: int, reason: str):
        self.token = token
        self.count = count
        self.reason = reason
        self._lock = threading.Lock()
        self._seen = 0

    def post_execute(self, launch) -> None:
        with self._lock:
            self._seen += 1
            if self._seen >= self.count:
                self.token.cancel(self.reason)


class AdvanceClockAfter(Hook):
    """Advance a virtual clock once ``count`` launches have completed."""

    def __init__(self, clock: VirtualClock, count: int, seconds: float):
        self.clock = clock
        self.count = count
        self.seconds = seconds
        self._lock = threading.Lock()
        self._seen = 0

    def post_execute(self, launch) -> None:
        with self._lock:
            self._seen += 1
            if self._seen == self.count:
                self.clock.advance(self.seconds)


class TestCancellationToken:
    def test_first_cancel_wins_the_reason(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("client disconnected")
        token.cancel("deadline watchdog")
        assert token.cancelled
        assert token.reason == "client disconnected"

    def test_raise_if_cancelled(self):
        token = CancellationToken()
        token.raise_if_cancelled()  # not cancelled: no-op
        token.cancel("stop")
        with pytest.raises(OperationCancelled, match="stop"):
            token.raise_if_cancelled(nodes_completed=(0, 1), total_nodes=4)


class TestSerialCancellation:
    def test_pre_cancelled_run_starts_nothing(self, rng):
        a3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[0] for _ in range(4)]
        )
        b3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[1] for _ in range(4)]
        )
        token = CancellationToken()
        token.cancel("pre-emptied")
        with use_context(backend="vectorized", cancel=token) as ctx:
            with pytest.raises(OperationCancelled) as excinfo:
                batched_mmo("min-plus", a3, b3, context=ctx)
        assert excinfo.value.nodes_completed == ()
        assert excinfo.value.reason == "pre-emptied"

    def test_mid_run_cancel_keeps_the_prefix(self, rng):
        a3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[0] for _ in range(6)]
        )
        b3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[1] for _ in range(6)]
        )
        token = CancellationToken()
        hook = CancelAfter(token, 2, "enough")
        with use_context(
            backend="vectorized", cancel=token, hooks=(hook,)
        ) as ctx:
            with pytest.raises(OperationCancelled) as excinfo:
                batched_mmo("min-plus", a3, b3, context=ctx)
        err = excinfo.value
        # Serial completes a build-order prefix, and nothing after the
        # cancellation point ever started.
        assert err.nodes_completed == (0, 1)
        assert err.total_nodes == 6
        assert "2/6 node(s)" in str(err)

    def test_cancel_after_the_last_launch_still_folds(self, rng):
        # The split-k fold is the entry point's, not a scheduler node: a
        # cancel that lands during the last partial launch stops nothing,
        # so the call returns the folded result.
        a, b, c = make_ring_inputs(MIN_PLUS, 16, 32, 16, rng)
        expected, expected_stats = mmo_tiled_split_k(
            "min-plus", a, b, c, splits=2, backend="vectorized"
        )
        token = CancellationToken()
        hook = CancelAfter(token, 2, "too late")
        with use_context(
            backend="vectorized", cancel=token, hooks=(hook,)
        ) as ctx:
            got, stats = mmo_tiled_split_k(
                "min-plus", a, b, c, splits=2, context=ctx
            )
        assert token.cancelled
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype
        assert stats == expected_stats

    def test_cancel_wins_over_expired_deadline(self, rng):
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 32, 16, rng, with_c=False)
        clock = VirtualClock()
        budget = ExecutionBudget(deadline_s=1.0)
        budget.check_deadline(clock)
        clock.advance(10.0)  # deadline long gone
        token = CancellationToken()
        token.cancel("user hit ^C")
        with use_context(
            backend="vectorized", cancel=token, budget=budget, clock=clock
        ) as ctx:
            graph = split_k_graph(ctx, resolve_opcode(MIN_PLUS), a, b, splits=2)
            with pytest.raises(OperationCancelled, match="user hit"):
                SerialExecutor().run(graph, context=ctx)


class TestThreadedCancellation:
    def test_threaded_drains_and_reports_unrun_nodes(self, rng):
        # Four split-k launches on two workers: when the second launch
        # completes, at most one more has started, so a cancel there
        # leaves at least one launch unstarted — the threaded executor
        # drains in-flight launches and raises.
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 64, 16, rng, with_c=False)
        token = CancellationToken()
        hook = CancelAfter(token, 2, "load shed")
        with use_context(
            backend="vectorized", cancel=token, hooks=(hook,)
        ) as ctx:
            graph = split_k_graph(ctx, resolve_opcode(MIN_PLUS), a, b, splits=4)
            with pytest.raises(OperationCancelled) as excinfo:
                ThreadPoolExecutor(max_workers=2).run(graph, context=ctx)
        err = excinfo.value
        assert err.reason == "load shed"
        # Every reported index really is a launch that ran to completion.
        assert 2 <= len(err.nodes_completed) < err.total_nodes == 4
        assert set(err.nodes_completed) <= set(range(len(graph.nodes)))

    def test_mid_run_cancel_leaves_unstarted_launches_unstarted(self, rng):
        # Six 192² launches on two workers, cancelled at the second
        # completion: every launch is submitted up front, but each worker
        # checks the token before it starts one, so the rest never run.
        a3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 192, 192, 192, rng)[0] for _ in range(6)]
        )
        b3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 192, 192, 192, rng)[1] for _ in range(6)]
        )
        token = CancellationToken()
        hook = CancelAfter(token, 2, "shed")
        with use_context(
            backend="vectorized", cancel=token, hooks=(hook,),
            scheduler=ThreadPoolExecutor(max_workers=2),
        ) as ctx:
            with pytest.raises(OperationCancelled) as excinfo:
                batched_mmo("min-plus", a3, b3, context=ctx)
        err = excinfo.value
        assert err.total_nodes == 6
        assert 2 <= len(err.nodes_completed) < 6

    def test_serial_and_threaded_raise_the_same_typed_error(self, rng):
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 64, 16, rng, with_c=False)
        raised = []
        for scheduler in (SerialExecutor(), ThreadPoolExecutor(max_workers=2)):
            token = CancellationToken()
            hook = CancelAfter(token, 2, "shared reason")
            with use_context(
                backend="vectorized", cancel=token, hooks=(hook,)
            ) as ctx:
                graph = split_k_graph(
                    ctx, resolve_opcode(MIN_PLUS), a, b, splits=4
                )
                with pytest.raises(OperationCancelled) as excinfo:
                    scheduler.run(graph, context=ctx)
            raised.append(excinfo.value)
        serial_err, threaded_err = raised
        assert type(serial_err) is type(threaded_err)
        assert serial_err.reason == threaded_err.reason
        assert serial_err.total_nodes == threaded_err.total_nodes

    def test_cancel_at_every_point_never_deadlocks(self, rng):
        # The race suite proper: fire the cancellation after the Nth
        # launch for every N; each run must terminate (drain, not hang)
        # with either the typed error or a full result.
        a, b, _ = make_ring_inputs(MIN_PLUS, 16, 64, 16, rng, with_c=False)
        for cancel_after in range(1, 6):
            token = CancellationToken()
            hook = CancelAfter(token, cancel_after, f"point {cancel_after}")
            with use_context(
                backend="vectorized", cancel=token, hooks=(hook,)
            ) as ctx:
                graph = split_k_graph(
                    ctx, resolve_opcode(MIN_PLUS), a, b, splits=4
                )
                try:
                    result = ThreadPoolExecutor(max_workers=3).run(
                        graph, context=ctx
                    )
                except OperationCancelled as exc:
                    assert exc.reason == f"point {cancel_after}"
                    assert len(exc.nodes_completed) < len(graph.nodes)
                else:
                    # A cancel landing after the last node completed is
                    # indistinguishable from no cancel: full result.
                    assert result.completed_nodes == tuple(
                        range(len(graph.nodes))
                    )

    def test_fully_drained_run_returns_normally(self, rng):
        # Four launches on four workers have all started before the cancel
        # lands; once every output exists the run is a success, matching
        # serial's rule of only checking before *pending* launches.
        a3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[0] for _ in range(4)]
        )
        b3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[1] for _ in range(4)]
        )
        token = CancellationToken()
        hook = CancelAfter(token, 4, "too late")
        with use_context(
            backend="vectorized", cancel=token, hooks=(hook,)
        ) as ctx:
            graph = batched_graph(
                ctx, resolve_opcode(MIN_PLUS), a3, b3, None, 4
            )
            result = ThreadPoolExecutor(max_workers=4).run(graph, context=ctx)
        assert result.completed_nodes == tuple(range(len(graph.nodes)))


class TestSchedulerDeadline:
    def test_deadline_trips_between_nodes_with_progress(self, rng):
        a3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[0] for _ in range(4)]
        )
        b3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[1] for _ in range(4)]
        )
        clock = VirtualClock()
        budget = ExecutionBudget(deadline_s=5.0)
        hook = AdvanceClockAfter(clock, 2, 10.0)
        with use_context(
            backend="vectorized", budget=budget, clock=clock, hooks=(hook,)
        ) as ctx:
            with pytest.raises(DeadlineExceeded) as excinfo:
                batched_mmo("min-plus", a3, b3, context=ctx)
        err = excinfo.value
        assert err.nodes_completed == (0, 1)
        assert err.deadline_s == 5.0
        assert err.launches_spent == 2

    def test_success_reports_all_nodes_completed(self, rng):
        a3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[0] for _ in range(3)]
        )
        b3 = np.stack(
            [make_ring_inputs(MIN_PLUS, 16, 8, 16, rng)[1] for _ in range(3)]
        )
        with use_context(backend="vectorized") as ctx:
            graph = batched_graph(
                ctx, resolve_opcode(MIN_PLUS), a3, b3, None, 3
            )
            result = SerialExecutor().run(graph, context=ctx)
        assert result.completed_nodes == tuple(range(len(graph.nodes)))
