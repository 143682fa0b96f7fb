"""Serial-vs-threaded bit-identity for every graph the builders produce.

The ThreadPoolExecutor's contract is that parallelism is *unobservable*:
result bytes, kernel statistics, fault injections, and surfaced errors
all match the SerialExecutor on every ring — because outputs come back
in launch order, the entry point folds or gathers them in that order,
and fault ordinals are pinned at build time, not by the schedule.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor as Callers

import numpy as np
import pytest

from repro.core import SEMIRINGS, mmo
from repro.hw import Simd2Device
from repro.resilience import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.policy import Recovery, RetryPolicy
from repro.runtime import Trace, use_context
from repro.runtime.batched import batched_mmo
from repro.runtime.closure import closure
from repro.runtime.host import HostRuntime
from repro.runtime.kernels import mmo_tiled_split_k
from repro.runtime.multidevice import mmo_tiled_multi_device
from repro.sched import GraphError, ThreadPoolExecutor, resolve_scheduler
from repro.sched import executor as executor_module
from tests.conftest import make_ring_inputs

MIN_PLUS = SEMIRINGS["min-plus"]
THREADED = ThreadPoolExecutor(max_workers=4)


def _closure_input(n: int, rng: np.random.Generator) -> np.ndarray:
    adj = rng.integers(1, 9, size=(n, n)).astype(np.float64)
    adj[rng.random((n, n)) < 0.6] = np.inf
    np.fill_diagonal(adj, 0.0)
    return adj


class TestBitIdentityAllRings:
    """Every opcode, threaded == serial, byte for byte."""

    def test_split_k(self, ring, rng):
        a, b, c = make_ring_inputs(ring, 32, 48, 32, rng)
        serial, serial_stats = mmo_tiled_split_k(ring, a, b, c, splits=3)
        with use_context(scheduler=THREADED) as ctx:
            threaded, threaded_stats = mmo_tiled_split_k(
                ring, a, b, c, splits=3, context=ctx
            )
        np.testing.assert_array_equal(threaded, serial)
        assert threaded.dtype == serial.dtype
        assert threaded_stats == serial_stats

    def test_batched(self, ring, rng):
        a3 = np.stack([make_ring_inputs(ring, 32, 16, 24, rng)[0] for _ in range(4)])
        b3 = np.stack([make_ring_inputs(ring, 32, 16, 24, rng)[1] for _ in range(4)])
        serial, _ = batched_mmo(ring, a3, b3)
        with use_context(scheduler=THREADED) as ctx:
            threaded, stats = batched_mmo(ring, a3, b3, context=ctx)
        np.testing.assert_array_equal(threaded, serial)
        assert stats.batch == 4

    def test_banded_closure(self, ring, rng):
        if ring.is_boolean():
            adj = rng.random((48, 48)) < 0.1
            np.fill_diagonal(adj, True)
        else:
            adj = _closure_input(48, rng).astype(ring.output_dtype, copy=False)
        serial = closure(ring, adj, max_iterations=6)
        with use_context(scheduler=THREADED) as ctx:
            threaded = closure(ring, adj, max_iterations=6, bands=3, context=ctx)
        np.testing.assert_array_equal(threaded.matrix, serial.matrix)
        assert threaded.iterations == serial.iterations
        assert threaded.converged == serial.converged

    def test_multi_device(self, ring, rng):
        a, b, c = make_ring_inputs(ring, 64, 16, 32, rng)
        serial, serial_shares = mmo_tiled_multi_device(
            ring, a, b, c, devices=[Simd2Device(sm_count=2) for _ in range(3)]
        )
        with use_context(scheduler=THREADED) as ctx:
            threaded, shares = mmo_tiled_multi_device(
                ring, a, b, c,
                devices=[Simd2Device(sm_count=2) for _ in range(3)],
                backend="emulate", context=ctx,
            )
        np.testing.assert_array_equal(threaded, serial)
        assert [s.row_start for s in shares] == [s.row_start for s in serial_shares]


class TestHostRuntime:
    def test_run_closure_threaded_matches_serial(self, rng):
        adj = _closure_input(32, rng)
        serial_host = HostRuntime()
        serial_host.upload("dist", adj, dtype=np.float64)
        serial = serial_host.run_closure("min-plus", "dist")
        from repro.runtime import ExecutionContext

        threaded_host = HostRuntime(
            context=ExecutionContext(backend="emulate", scheduler=THREADED)
        )
        threaded_host.upload("dist", adj, dtype=np.float64)
        threaded = threaded_host.run_closure("min-plus", "dist")
        np.testing.assert_array_equal(threaded.matrix, serial.matrix)
        assert threaded.iterations == serial.iterations
        assert threaded.converged == serial.converged
        # the host event timeline is schedule-independent too
        assert threaded_host.event_kinds() == serial_host.event_kinds()


class TestFaultsUnderThreads:
    def test_corruption_injects_identically(self, rng):
        a3 = np.stack([make_ring_inputs(MIN_PLUS, 32, 16, 32, rng)[0] for _ in range(4)])
        b3 = np.stack([make_ring_inputs(MIN_PLUS, 32, 16, 32, rng)[1] for _ in range(4)])
        outs = []
        for scheduler in (None, THREADED):
            plan = FaultPlan(seed=7, corrupt={2: FaultSpec(kind="bitflip")})
            with use_context(
                backend="vectorized", fault_plan=plan, scheduler=scheduler
            ) as ctx:
                got, _ = batched_mmo("min-plus", a3, b3, context=ctx)
            assert plan.injected_corruptions == 1
            outs.append(got)
        np.testing.assert_array_equal(outs[0], outs[1])
        # the corruption landed in batch item 2 on both schedules
        clean, _ = batched_mmo("min-plus", a3, b3)
        diff_items = {int(i) for i in np.argwhere(outs[0] != clean)[:, 0]}
        assert diff_items == {2}

    def test_checked_retry_recovers_under_threads(self, rng):
        """A corrupted band is detected by ABFT and retried concurrently;
        the retry claims a fresh ordinal and the result matches clean."""
        a, b, c = make_ring_inputs(MIN_PLUS, 64, 16, 32, rng)
        devices = [Simd2Device() for _ in range(3)]
        clean, _ = mmo_tiled_multi_device(MIN_PLUS, a, b, c, devices=devices)
        plan = FaultPlan(seed=5, corrupt={1: FaultSpec(kind="nan")})
        trace = Trace()
        with use_context(
            backend="emulate", fault_plan=plan, trace=trace, scheduler=THREADED,
            recovery=Recovery(retry=RetryPolicy(max_retries=2)),
        ) as ctx:
            got, _ = mmo_tiled_multi_device(
                MIN_PLUS, a, b, c,
                devices=[Simd2Device() for _ in range(3)],
                context=ctx,
            )
        np.testing.assert_array_equal(got, clean)
        assert plan.injected_corruptions == 1
        assert trace.summary().retries >= 1

    def test_repartition_mid_graph_under_threads(self, rng):
        a, b, c = make_ring_inputs(MIN_PLUS, 64, 16, 32, rng)
        clean, _ = mmo_tiled_multi_device(
            MIN_PLUS, a, b, c, devices=[Simd2Device() for _ in range(3)]
        )
        plan = FaultPlan(fail_devices=(1,))
        blacklist: set[int] = set()
        with use_context(
            backend="emulate", fault_plan=plan, scheduler=THREADED
        ) as ctx:
            got, shares = mmo_tiled_multi_device(
                MIN_PLUS, a, b, c,
                devices=[Simd2Device() for _ in range(3)],
                context=ctx, on_device_failure="repartition",
                blacklist=blacklist,
            )
        np.testing.assert_array_equal(got, clean)
        assert blacklist == {1}
        assert plan.injected_device_failures == 1
        assert all(share.device_index != 1 for share in shares)

    def test_threaded_failure_is_deterministic(self, rng):
        """With several faulting nodes the smallest node index's error
        surfaces — the one a serial run would hit first."""
        a3 = np.stack([make_ring_inputs(MIN_PLUS, 32, 16, 32, rng)[0] for _ in range(4)])
        b3 = np.stack([make_ring_inputs(MIN_PLUS, 32, 16, 32, rng)[1] for _ in range(4)])
        for scheduler in (None, THREADED):
            plan = FaultPlan(drop=(1, 3))
            with use_context(
                backend="vectorized", fault_plan=plan, scheduler=scheduler
            ) as ctx:
                with pytest.raises(InjectedFault, match="dropped launch 1"):
                    batched_mmo("min-plus", a3, b3, context=ctx)


class TestSchedulerResolution:
    def test_default_is_serial(self):
        with use_context() as ctx:
            scheduler = resolve_scheduler(ctx)
        from repro.sched import SerialExecutor

        assert isinstance(scheduler, SerialExecutor)

    def test_context_scheduler_wins(self):
        with use_context(scheduler=THREADED) as ctx:
            assert resolve_scheduler(ctx) is THREADED

    def test_worker_count_validated(self):
        with pytest.raises(GraphError, match="must be positive"):
            ThreadPoolExecutor(max_workers=0)


class TestWorkerPool:
    """One worker pool per executor: started once, reused, released with it."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """The threads that run each launch, in launch-start order."""
        threads: list[threading.Thread] = []
        real = executor_module._run_launch

        def recording(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(executor_module, "_run_launch", recording)
        return threads

    @staticmethod
    def _batched(scheduler, rng):
        a3 = rng.integers(1, 9, (4, 16, 8)).astype(np.float64)
        b3 = rng.integers(1, 9, (4, 8, 16)).astype(np.float64)
        with use_context(backend="vectorized", scheduler=scheduler) as ctx:
            return batched_mmo("min-plus", a3, b3, context=ctx)

    def test_consecutive_runs_reuse_the_worker_threads(self, rng, workers):
        scheduler = ThreadPoolExecutor(max_workers=2)
        for _ in range(5):
            self._batched(scheduler, rng)
        assert len(workers) == 20
        assert len(set(workers)) <= 2
        assert threading.current_thread() not in workers

    def test_dropped_executors_leave_no_threads_alive(self, rng, workers):
        for _ in range(50):
            self._batched(ThreadPoolExecutor(max_workers=2), rng)
        gc.collect()
        started = set(workers)
        deadline = time.monotonic() + 10
        for thread in started:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not [thread for thread in started if thread.is_alive()]

    def test_concurrent_runs_share_one_pool(self, rng, workers):
        # Eight callers race the executor's first run under a tiny switch
        # interval: one pool of three workers serves them all.
        scheduler = ThreadPoolExecutor(max_workers=3)
        inputs = [
            (rng.integers(1, 9, (4, 16, 8)).astype(np.float64),
             rng.integers(1, 9, (4, 8, 16)).astype(np.float64))
            for _ in range(8)
        ]

        def solve(operands):
            a3, b3 = operands
            with use_context(backend="vectorized", scheduler=scheduler) as ctx:
                return [batched_mmo("min-plus", a3, b3, context=ctx)[0] for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Callers(max_workers=8) as callers:
                results = list(callers.map(solve, inputs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (a3, b3), runs in zip(inputs, results):
            want = np.stack([mmo("min-plus", a, b) for a, b in zip(a3, b3)])
            for got in runs:
                np.testing.assert_array_equal(got, want)
        assert len(workers) == 8 * 5 * 4
        assert len(set(workers)) <= 3
