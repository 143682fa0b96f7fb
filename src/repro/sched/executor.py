"""Schedulers: run a LaunchGraph serially or on a thread pool.

The :class:`Scheduler` protocol has one method — ``run(graph, context=)``
— and two implementations:

- :class:`SerialExecutor` walks nodes in build order on the calling
  thread: bit-identical to the hand-rolled loops the entry points had
  before graphs existed, and the default
  (:func:`resolve_scheduler` returns a shared instance when the context
  carries no scheduler).
- :class:`ThreadPoolExecutor` dispatches nodes whose dependencies are
  satisfied onto a worker pool.  Results stay bit-identical to serial on
  every ring because the graph pins all the order that matters: fold
  order lives in :class:`~repro.sched.graph.ReduceStep` /
  :class:`~repro.sched.graph.GatherStep` nodes, and fault ordinals were
  reserved at build time.  Failures are deterministic too — when nodes
  error concurrently, the error of the *smallest node index* propagates,
  which is the one a serial run would have hit first.

Thread-safety is capability-driven: a backend declaring
``thread_safe=False`` (the emulate backend stages operands through a
shared default device) has its deviceless launches serialised under one
lock, while launches carrying their own device (multi-device bands) run
concurrently under per-device locks.

Both executors honour the context's SLO controls between node
dispatches: a :class:`~repro.resilience.cancel.CancellationToken` or an
:class:`~repro.resilience.budget.ExecutionBudget` deadline stops the run
cooperatively — in-flight nodes drain, pending nodes never start, and
the typed error (:class:`~repro.resilience.cancel.OperationCancelled` /
:class:`~repro.resilience.budget.DeadlineExceeded`) reports exactly
which node indices completed.  Under the serial executor that set is a
build-order prefix; under the thread pool it is dependency-closed.
Contexts carrying neither pay a single boolean check per run.
"""

from __future__ import annotations

import concurrent.futures
import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager, Protocol, runtime_checkable

import numpy as np

from repro.hw.errors import HardwareError
from repro.hooks.pipeline import emit_event
from repro.runtime.kernels import KernelStats, execute_compiled, mmo_tiled
from repro.sched.graph import (
    GatherStep,
    GraphError,
    LaunchGraph,
    LaunchStep,
    ReduceStep,
    Ref,
    Step,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

__all__ = [
    "GraphResult",
    "Scheduler",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "resolve_scheduler",
]

def _resolve(
    graph: LaunchGraph, values: "list[np.ndarray | None]", ref: Ref
) -> np.ndarray:
    """Materialise a reference against computed node values."""
    base: "np.ndarray | None"
    if ref.const is not None:
        base = graph.constants[ref.const]
    else:
        assert ref.node is not None
        base = values[ref.node]
    if base is None:
        raise GraphError(f"reference to unevaluated node {ref.node}")
    if ref.rows is not None:
        base = base[ref.rows[0] : ref.rows[1]]
    if ref.cols is not None:
        base = base[:, ref.cols[0] : ref.cols[1]]
    return base


class GraphResult:
    """Computed node values and per-launch kernel statistics.

    Index with any :class:`~repro.sched.graph.Ref` the builder returned
    (``result[ref]``); :meth:`stats_of` returns the
    :class:`~repro.runtime.kernels.KernelStats` of a launch node.
    """

    def __init__(
        self,
        graph: LaunchGraph,
        values: "list[np.ndarray | None]",
        stats: "list[KernelStats | None]",
    ):
        self.graph = graph
        self._values = values
        self._stats = stats

    def __getitem__(self, ref: Ref) -> np.ndarray:
        return _resolve(self.graph, self._values, ref)

    def stats_of(self, ref: Ref) -> KernelStats:
        if ref.node is None:
            raise GraphError("constants carry no kernel statistics")
        stats = self._stats[ref.node]
        if stats is None:
            raise GraphError(f"node {ref.node} is not a launch node")
        return stats

    @property
    def completed_nodes(self) -> tuple[int, ...]:
        """Indices of evaluated nodes (every index on a completed run)."""
        return tuple(
            index for index, value in enumerate(self._values) if value is not None
        )


def _interruptible(context: "ExecutionContext") -> bool:
    """Whether the context carries any between-node stop condition."""
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

    Checked between node dispatches by both executors.  Cancellation
    wins over the deadline when both have tripped (racing cancellers
    converge on one stable reason, see
    :class:`~repro.resilience.cancel.CancellationToken`); both
    conditions are sticky, so an interrupt observed mid-run is still
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
        """Evaluate every node and return the result table."""
        ...  # pragma: no cover - protocol


class _LockTable:
    """Per-device and per-backend serialisation for one graph run."""

    def __init__(self, serialize_backend: bool):
        self._guard = threading.Lock()
        self._device_locks: dict[int, threading.Lock] = {}
        self._backend_lock = threading.Lock() if serialize_backend else None

    def guard_for(self, node: LaunchStep) -> ContextManager[object]:
        if node.device is not None:
            with self._guard:
                lock = self._device_locks.setdefault(
                    id(node.device), threading.Lock()
                )
            return lock
        if self._backend_lock is not None:
            return self._backend_lock
        return nullcontext()


_NO_LOCKS = _LockTable(serialize_backend=False)


def _needs_backend_lock(context: "ExecutionContext") -> bool:
    from repro.backends.base import capabilities_of, get_backend  # lazy: layered above

    return not capabilities_of(get_backend(context.backend)).thread_safe


def _attempt(
    node: LaunchStep, a: np.ndarray, b: np.ndarray, c: np.ndarray | None,
    ctx: "ExecutionContext", ordinal: int | None,
) -> tuple[np.ndarray, KernelStats]:
    """One launch attempt: replay the artifact (or dispatch), wrap hw errors.

    Ring inputs are not re-validated: the entry point that built the
    graph validated them once for the whole call.
    """
    try:
        if node.compiled is not None:
            return execute_compiled(
                node.compiled, a, b, c,
                context=ctx, api=node.api,
                cache_hit=node.cache_hit,
                validate_inputs=False,
                fault_ordinal=ordinal,
            )
        return mmo_tiled(
            node.opcode, a, b, c,
            context=ctx, api=node.api,
            validate_inputs=False,
            fault_ordinal=ordinal,
        )
    except HardwareError as exc:
        if not node.wrap_hw_errors:
            raise
        from repro.resilience.faults import DeviceFailure  # lazy: layered above

        assert node.device_index is not None
        raise DeviceFailure(node.device_index, str(exc)) from exc


def _run_launch(
    graph: LaunchGraph,
    node: LaunchStep,
    values: "list[np.ndarray | None]",
    context: "ExecutionContext",
) -> tuple[np.ndarray, KernelStats]:
    """One launch node: a single attempt, or the one recovery driver.

    A node with ``checked``/``retry``/``fallback`` policy walks its
    backend chain (the context's backend alone without ``fallback``),
    skipping backends whose breaker refuses.  This is the only code that
    retries, verifies ABFT checksums and falls back: a transient failure
    feeds the breakers, a retryable one spends a budget retry and backs
    off on the context clock, a fallback-worthy one moves down the
    chain; anything else — and a chainless node's last failure — raises.
    """
    a = _resolve(graph, values, node.a)
    b = _resolve(graph, values, node.b)
    c = None if node.c is None else _resolve(graph, values, node.c)
    context = context if node.device is None else context.replace(device=node.device)
    if not (node.checked or node.retry is not None or node.fallback is not None):
        return _attempt(node, a, b, c, context, node.fault_ordinal)

    # Lazy: repro.resilience sits above this package in the layering.
    from repro.resilience import (
        BreakerOpen, CheckedLaunch, DeviceFailure, ResilienceExhausted,
        RetryPolicy, classify, mmo_checksums, resolve_clock,
    )

    def emit(kind: str, backend: str, detail: str, attempt: int = 0) -> None:
        emit_event(
            context, kind=kind, api=node.api, backend=backend, detail=detail,
            attempt=attempt, device_index=node.device_index,
        )

    retry = node.retry if node.retry is not None else RetryPolicy()
    fallback = node.fallback
    sums = (
        mmo_checksums(node.opcode.semiring, a, b, c, rtol=node.rtol, atol=node.atol)
        if node.checked else None
    )
    board, budget, clock = context.breakers, context.budget, resolve_clock(context)
    first = context.backend
    chain = (first,) if fallback is None else fallback.plan(
        first, ring=node.opcode, a=a, b=b, c=c
    )
    # The build-time ordinal belongs to the first attempt; later attempts
    # claim fresh ones, deterministically escaping a transient fault.
    ordinal = node.fault_ordinal
    causes: list[tuple[str, BaseException]] = []
    for backend in chain:
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
                result, stats = _attempt(node, a, b, c, ctx, ordinal)
                if sums is not None:
                    CheckedLaunch().verify(sums, result, context=ctx, api=node.api)
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


def _run_node(
    graph: LaunchGraph,
    index: int,
    values: "list[np.ndarray | None]",
    context: "ExecutionContext",
    locks: _LockTable,
) -> "tuple[np.ndarray, KernelStats | None]":
    node: Step = graph.nodes[index]
    if isinstance(node, LaunchStep):
        with locks.guard_for(node):
            result, stats = _run_launch(graph, node, values, context)
        return result, stats
    if isinstance(node, ReduceStep):
        combined = _resolve(graph, values, node.inputs[0])
        for ref in node.inputs[1:]:
            combined = np.asarray(
                node.semiring.oplus(combined, _resolve(graph, values, ref)),
                dtype=node.semiring.output_dtype,
            )
        return combined, None
    if isinstance(node, GatherStep):
        out = np.empty(node.shape, dtype=node.dtype)
        for row_start, row_stop, ref in node.pieces:
            out[row_start:row_stop] = _resolve(graph, values, ref)
        return out, None
    raise GraphError(f"unknown node type {type(node).__name__}")


class SerialExecutor:
    """Node-at-a-time in build order — the pre-graph dispatch, exactly.

    With a cancellation token or budget on the context, the token and
    deadline are checked *before each node*: a trip raises the typed
    error with the build-order prefix of completed indices.  A node
    already running is never interrupted mid-kernel.
    """

    def run(
        self, graph: LaunchGraph, *, context: "ExecutionContext"
    ) -> GraphResult:
        total = len(graph.nodes)
        values: "list[np.ndarray | None]" = [None] * total
        stats: "list[KernelStats | None]" = [None] * total
        interruptible = _interruptible(context)
        for index in range(total):
            if interruptible:
                error = _interrupt_error(context, tuple(range(index)), total)
                if error is not None:
                    raise error
            values[index], stats[index] = _run_node(
                graph, index, values, context, _NO_LOCKS
            )
        return GraphResult(graph, values, stats)


class ThreadPoolExecutor:
    """Run independent nodes concurrently; everything ordered stays pinned.

    Ready nodes are submitted in index order; completed futures are
    consumed in index order; a failure stops further submission, drains
    the in-flight work, and re-raises the smallest-index error — so the
    observable behaviour (result bytes, fault injections, which error
    surfaces) matches :class:`SerialExecutor` on every graph the
    builders produce.
    """

    def __init__(self, max_workers: int = 4):
        if max_workers <= 0:
            raise GraphError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers

    def run(
        self, graph: LaunchGraph, *, context: "ExecutionContext"
    ) -> GraphResult:
        total = len(graph.nodes)
        values: "list[np.ndarray | None]" = [None] * total
        stats: "list[KernelStats | None]" = [None] * total
        dependents: list[list[int]] = [[] for _ in range(total)]
        remaining = [0] * total
        for index in range(total):
            deps = graph.dependencies(index)
            remaining[index] = len(deps)
            for dep in deps:
                dependents[dep].append(index)
        locks = _LockTable(serialize_backend=_needs_backend_lock(context))
        errors: list[tuple[int, BaseException]] = []
        pending: "dict[concurrent.futures.Future[tuple[np.ndarray, KernelStats | None]], int]" = {}
        interruptible = _interruptible(context)
        interrupted = False

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers
        ) as pool:

            def submit(index: int) -> None:
                future = pool.submit(
                    _run_node, graph, index, values, context, locks
                )
                pending[future] = index

            def halted() -> bool:
                """Stop submitting?  Errors and interrupts both drain."""
                nonlocal interrupted
                if errors or interrupted:
                    return True
                if (
                    interruptible
                    and _interrupt_error(context, None, total) is not None
                ):
                    interrupted = True
                return interrupted

            for index in range(total):
                if remaining[index] == 0:
                    if halted():
                        break
                    submit(index)
            while pending:
                done, _ = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in sorted(done, key=lambda f: pending[f]):
                    index = pending.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        errors.append((index, exc))
                        continue
                    values[index], stats[index] = future.result()
                    if halted():
                        continue  # drain only; stop expanding the frontier
                    for dependent in dependents[index]:
                        remaining[dependent] -= 1
                        if remaining[dependent] == 0:
                            submit(dependent)
        if errors:
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        if interrupted and any(value is None for value in values):
            # Re-derive the completed set after the drain: the stop
            # conditions are sticky, so the error is still demanded.  A
            # run whose nodes all finished anyway returns normally —
            # matching the serial executor, which only checks before
            # *pending* nodes.
            completed = tuple(
                index for index, value in enumerate(values) if value is not None
            )
            error = _interrupt_error(context, completed, total)
            if error is not None:
                raise error
        return GraphResult(graph, values, stats)


_SERIAL = SerialExecutor()


def resolve_scheduler(context: "ExecutionContext") -> Scheduler:
    """The context's scheduler, defaulting to the shared serial executor."""
    scheduler = context.scheduler
    return scheduler if scheduler is not None else _SERIAL
