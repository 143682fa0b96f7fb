"""Schedulers: run a LaunchGraph serially or on a thread pool.

The :class:`Scheduler` protocol has one method — ``run(graph, context=)``
— and two implementations:

- :class:`SerialExecutor` runs the launches in launch order on the
  calling thread: bit-identical to the hand-rolled loops the entry
  points had before graphs existed, and the default
  (:func:`resolve_scheduler` returns a shared instance when the context
  carries no scheduler).
- :class:`ThreadPoolExecutor` runs the launches on a worker pool that it
  starts on its first run and keeps for later ones.  No
  launch reads another's output, and results stay bit-identical to
  serial on every ring because nothing that matters depends on the
  schedule: outputs come back in launch order, the entry point combines
  them in that order, and fault ordinals were reserved at build time.
  Failures are deterministic too — when launches fail concurrently, the
  error of the *smallest launch index* propagates, which is the one a
  serial run would have hit first.

Thread-safety is capability-driven and held per attempt: a deviceless
attempt on a backend declaring ``thread_safe=False`` (the emulate
backend runs deviceless launches on one shared default device) holds
that backend's lock, whichever backend the recovery driver has fallen
back to, while attempts carrying their own device (multi-device bands)
run concurrently under per-device locks.

Both executors honour the context's SLO controls before each launch
starts: a :class:`~repro.resilience.cancel.CancellationToken` or an
:class:`~repro.resilience.budget.ExecutionBudget` deadline stops the run
cooperatively — in-flight launches drain, launches that have not started
never start, and the typed error
(:class:`~repro.resilience.cancel.OperationCancelled` /
:class:`~repro.resilience.budget.DeadlineExceeded`) reports exactly
which launch indices completed.  Under the serial executor that set is a
launch-order prefix.  A stop that trips after the last launch started
stops nothing, so the run returns its result.  Contexts carrying neither
pay a single boolean check per run.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import threading
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING, ContextManager, Iterator, Protocol, runtime_checkable,
)

import numpy as np

from repro.hw.errors import HardwareError
from repro.hooks.pipeline import emit_event
from repro.runtime.kernels import (
    KernelStats,
    _launch,
    _validate_operands,
    execute_compiled,
)
from repro.sched.graph import GraphError, LaunchGraph, LaunchStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.policy import FallbackChain
    from repro.runtime.context import ExecutionContext

__all__ = [
    "GraphResult",
    "Scheduler",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "resolve_scheduler",
]


@dataclasses.dataclass(frozen=True, eq=False)
class GraphResult:
    """Every launch's output and kernel statistics, in launch order.

    Only a run in which every launch completed returns a result; a
    stopped or failed run raises instead.  The entry point that built the
    graph combines ``outputs`` itself
    (:func:`~repro.sched.builders.fold_outputs`,
    :func:`~repro.sched.builders.gather_rows`).
    """

    outputs: tuple[np.ndarray, ...]
    stats: tuple[KernelStats, ...]

    @property
    def completed_nodes(self) -> tuple[int, ...]:
        """Indices of the completed launches: every index of the graph."""
        return tuple(range(len(self.outputs)))


def _interruptible(context: "ExecutionContext") -> bool:
    """Whether the context carries any between-launch stop condition."""
    return (
        getattr(context, "cancel", None) is not None
        or getattr(context, "budget", None) is not None
    )


def _interrupt_error(
    context: "ExecutionContext",
    completed: "tuple[int, ...] | None",
    total: int,
) -> BaseException | None:
    """The typed error the context's stop conditions currently demand.

    Checked before each launch starts, by both executors.  Cancellation
    wins over the deadline when both have tripped (racing cancellers
    converge on one stable reason, see
    :class:`~repro.resilience.cancel.CancellationToken`); both
    conditions are sticky, so a stop a worker observed is still
    observable after the in-flight drain re-derives the completed set.
    """
    cancel = getattr(context, "cancel", None)
    if cancel is not None and cancel.cancelled:
        from repro.resilience.cancel import OperationCancelled  # lazy: layered above

        return OperationCancelled(
            cancel.reason, nodes_completed=completed, total_nodes=total
        )
    budget = getattr(context, "budget", None)
    if budget is not None:
        # Lazy: repro.resilience sits above this package in the layering.
        from repro.resilience.budget import DeadlineExceeded
        from repro.resilience.clock import resolve_clock

        try:
            budget.check_deadline(
                resolve_clock(context),
                nodes_completed=completed,
                where="scheduler",
            )
        except DeadlineExceeded as exc:
            return exc
    return None


@runtime_checkable
class Scheduler(Protocol):
    """Anything that can run a launch graph to completion."""

    def run(
        self, graph: LaunchGraph, *, context: "ExecutionContext"
    ) -> GraphResult:
        """Run every launch and return the outputs in launch order."""
        ...  # pragma: no cover - protocol


#: The guard of an attempt that needs none (reusable: it holds nothing).
_UNGUARDED: ContextManager[object] = nullcontext()


class _LockTable:
    """Per-device and per-backend serialisation for one threaded run."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._device_locks: dict[int, threading.Lock] = {}
        self._backend_locks: dict[str, ContextManager[object]] = {}

    def guard_for(self, node: LaunchStep, backend: str) -> ContextManager[object]:
        """The lock an attempt of ``node`` on ``backend`` holds."""
        with self._guard:
            if node.device is not None:
                return self._device_locks.setdefault(id(node.device), threading.Lock())
            lock = self._backend_locks.get(backend)
            if lock is None:
                lock = _UNGUARDED if _thread_safe(backend) else threading.Lock()
                self._backend_locks[backend] = lock
            return lock


def _thread_safe(backend: str) -> bool:
    from repro.backends.base import capabilities_of, get_backend  # lazy: layered above

    return capabilities_of(get_backend(backend)).thread_safe


def _attempt(
    node: LaunchStep,
    ctx: "ExecutionContext",
    ordinal: int | None,
    locks: _LockTable | None,
) -> tuple[np.ndarray, KernelStats]:
    """One launch attempt: replay the artifact (or dispatch), wrap hw errors.

    Under a threaded run (``locks``) the attempt holds its device's lock,
    or its backend's when that backend is not thread-safe.  Ring inputs
    are not re-validated: the entry point that built the graph validated
    them once for the whole call.  An uncompiled launch runs the kernels'
    launch body itself, never ``mmo_tiled``, so an attempt cannot
    re-enter ``mmo_tiled``'s recovery graph.
    """
    guard = _UNGUARDED if locks is None else locks.guard_for(node, ctx.backend)
    try:
        with guard:
            if node.compiled is not None:
                return execute_compiled(
                    node.compiled, node.a, node.b, node.c,
                    context=ctx, api=node.api,
                    cache_hit=node.cache_hit,
                    validate_inputs=False,
                    fault_ordinal=ordinal,
                )
            a, b, c, _, _, _ = _validate_operands(node.a, node.b, node.c)
            return _launch(
                ctx, node.opcode, None, a, b, c,
                api=node.api, cache_hit=None,
                validate_inputs=False, fault_ordinal=ordinal,
            )
    except HardwareError as exc:
        if not node.wrap_hw_errors:
            raise
        from repro.resilience.faults import DeviceFailure  # lazy: layered above

        assert node.device_index is not None
        raise DeviceFailure(node.device_index, str(exc)) from exc


def _chain(
    node: LaunchStep, first: str, fallback: "FallbackChain | None"
) -> Iterator[str]:
    """The launch's backends: ``first``, then the rest of ``fallback``'s order.

    The fallback order is planned only once ``first`` is spent, so a
    launch that succeeds on its own backend never plans one.
    """
    yield first
    if fallback is not None:
        order = fallback.plan(first, ring=node.opcode, a=node.a, b=node.b, c=node.c)
        yield from order[1:]


def _run_launch(
    node: LaunchStep, context: "ExecutionContext", locks: _LockTable | None = None
) -> tuple[np.ndarray, KernelStats]:
    """One launch: a single attempt, or the one recovery driver.

    Without a recovery policy on the context (``context.recovery is
    None``) the launch is one attempt.  Under one it walks its backend
    chain (the context's backend alone without ``fallback``), skipping
    backends whose breaker refuses.  This is the only code that retries,
    verifies ABFT checksums and falls back: a transient failure feeds the
    breakers, a retryable one spends a budget retry and backs off on the
    context clock, a fallback-worthy one moves down the chain; anything
    else — and a chainless launch's last failure — raises.  A threaded
    run passes its ``locks``, which guard each attempt on the backend it
    runs on; backoff and verification run outside them.
    """
    context = context if node.device is None else context.replace(device=node.device)
    recovery = context.recovery
    if recovery is None:
        return _attempt(node, context, node.fault_ordinal, locks)

    # Lazy: repro.resilience sits above this package in the layering.
    from repro.resilience import (
        BreakerOpen, CorruptionDetected, DeviceFailure, ResilienceExhausted,
        RetryPolicy, classify, mmo_checksums, resolve_clock,
    )

    def emit(kind: str, backend: str, detail: str, attempt: int = 0) -> None:
        emit_event(
            context, kind=kind, api=node.api, backend=backend, detail=detail,
            attempt=attempt, device_index=node.device_index,
        )

    retry = recovery.retry if recovery.retry is not None else RetryPolicy()
    fallback = recovery.fallback
    sums = (
        mmo_checksums(
            node.opcode.semiring, node.a, node.b, node.c,
            rtol=recovery.rtol, atol=recovery.atol,
        )
        if recovery.checked else None
    )
    board, budget, clock = context.breakers, context.budget, resolve_clock(context)
    first = context.backend
    # The build-time ordinal belongs to the first attempt; later attempts
    # claim fresh ones, deterministically escaping a transient fault.
    ordinal = node.fault_ordinal
    causes: list[tuple[str, BaseException]] = []
    for backend in _chain(node, first, fallback):
        if board is not None and not board.try_acquire(backend):
            skip = BreakerOpen(backend, state=board.state_of(backend))
            emit("breaker_open", backend, str(skip))
            causes.append((backend, skip))
            continue
        ctx = context
        if backend != first:
            ctx = context.replace(backend=backend)
            emit(
                "fallback", backend,
                f"degrading {causes[-1][0]} -> {backend}: {causes[-1][1]}",
            )
        for attempt in range(retry.max_attempts):
            try:
                result, stats = _attempt(node, ctx, ordinal, locks)
                if sums is not None:
                    report = sums.verify(result)
                    if not report.ok:
                        emit("corruption_detected", backend, report.describe())
                        raise CorruptionDetected(report)
                    if board is not None:
                        # Verified evidence resets the failure count (the
                        # hook's unverified probe_only success cannot).
                        board.record_success(backend)
                return result, stats
            except Exception as exc:  # noqa: BLE001 - classified below
                ordinal = None
                if node.wrap_hw_errors and isinstance(exc, DeviceFailure):
                    raise  # the partitioner blacklists and repartitions
                if board is not None and classify(exc) == "transient":
                    emit("backend_failure", backend, f"{type(exc).__name__}: {exc}")
                if retry.should_retry(exc, attempt):
                    if budget is not None:
                        budget.charge_retry(clock)
                    emit(
                        "retry", backend,
                        f"{node.label or node.api} attempt {attempt + 1} "
                        f"failed: {exc}",
                        attempt=attempt + 1,
                    )
                    delay = retry.backoff_s(attempt)
                    if budget is not None:
                        budget.charge_sleep(clock, delay)
                    elif delay > 0.0:
                        clock.sleep(delay)
                    continue
                if fallback is None or not fallback.should_fall_back(exc):
                    raise
                causes.append((backend, exc))
                break
    raise ResilienceExhausted(causes)


class SerialExecutor:
    """One launch at a time in launch order — the pre-graph dispatch, exactly.

    With a cancellation token or budget on the context, the token and
    deadline are checked *before each launch*: a trip raises the typed
    error with the launch-order prefix of completed indices.  A launch
    already running is never interrupted mid-kernel.
    """

    def run(
        self, graph: LaunchGraph, *, context: "ExecutionContext"
    ) -> GraphResult:
        total = len(graph.nodes)
        interruptible = _interruptible(context)
        outputs: list[np.ndarray] = []
        launch_stats: list[KernelStats] = []
        for index, node in enumerate(graph.nodes):
            if interruptible:
                error = _interrupt_error(context, tuple(range(index)), total)
                if error is not None:
                    raise error
            output, stats = _run_launch(node, context)
            outputs.append(output)
            launch_stats.append(stats)
        return GraphResult(tuple(outputs), tuple(launch_stats))


class ThreadPoolExecutor:
    """Run the launches concurrently; everything ordered stays pinned.

    Every launch is submitted in index order, and each worker checks the
    context's stop conditions before it starts its launch, so once a
    cancellation or deadline trips no pending launch starts.  A failed
    launch stops nothing: once every launch of the graph has finished,
    the error of the smallest failed index propagates — the one
    :class:`SerialExecutor` would have hit first — so the observable
    behaviour (result bytes, fault injections, which error surfaces)
    matches the serial run on every graph the builders produce.

    The worker pool starts on the first run and serves every later one,
    so a closure's graphs do not each pay for starting and joining
    threads.  Its idle workers exit once the executor is garbage
    collected.  A launch must not run a graph on the executor that runs
    it: that graph could wait for workers that are all busy waiting.
    """

    def __init__(self, max_workers: int = 4):
        if max_workers <= 0:
            raise GraphError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _workers(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._pool

    def run(
        self, graph: LaunchGraph, *, context: "ExecutionContext"
    ) -> GraphResult:
        total = len(graph.nodes)
        locks = _LockTable()
        interruptible = _interruptible(context)

        def work(node: LaunchStep) -> "tuple[np.ndarray, KernelStats] | None":
            if interruptible and _interrupt_error(context, None, total) is not None:
                return None  # stopped before this launch started
            return _run_launch(node, context, locks)

        pool = self._workers()
        futures = [pool.submit(work, node) for node in graph.nodes]
        concurrent.futures.wait(futures)
        outputs: list[np.ndarray] = []
        launch_stats: list[KernelStats] = []
        completed: list[int] = []
        for index, future in enumerate(futures):
            done = future.result()  # re-raises a failure: smallest index first
            if done is not None:
                completed.append(index)
                outputs.append(done[0])
                launch_stats.append(done[1])
        if len(completed) < total:
            # The stop conditions are sticky, so the error a worker saw is
            # still demanded; re-derive it with the completed set.
            error = _interrupt_error(context, tuple(completed), total)
            assert error is not None
            raise error
        return GraphResult(tuple(outputs), tuple(launch_stats))


_SERIAL = SerialExecutor()


def resolve_scheduler(context: "ExecutionContext") -> Scheduler:
    """The context's scheduler, defaulting to the shared serial executor."""
    scheduler = context.scheduler
    return scheduler if scheduler is not None else _SERIAL
