"""Cooperative cancellation: stop a run between launches, never mid-kernel.

A :class:`CancellationToken` rides on the
:class:`~repro.runtime.context.ExecutionContext`; any thread may call
:meth:`CancellationToken.cancel` at any moment.  Nothing is interrupted
preemptively — the schedulers in :mod:`repro.sched.executor` check the
token *before each launch starts*: in-flight launches drain to
completion, pending launches never start, and the run raises a typed
:class:`OperationCancelled` reporting exactly which launch indices
finished.  Under the serial executor the completed set is a launch-order
prefix; under the thread pool it is whichever launches had started, and
both raise the same typed error with the same reason.  A cancellation
that lands after the last launch started stops nothing: the entry point
folds or gathers the outputs and returns.

Because fault ordinals are reserved at graph-build time, a cancelled run
under a seeded :class:`~repro.resilience.faults.FaultPlan` injects
exactly the faults its completed launches would have seen in a full run
— cancellation never perturbs the fault schedule.
"""

from __future__ import annotations

import threading

from repro.resilience.faults import ResilienceError

__all__ = ["CancellationToken", "OperationCancelled"]


class OperationCancelled(ResilienceError):
    """A run was stopped by its cancellation token.

    ``nodes_completed`` lists the indices of the graph's launches that
    finished before the stop (``None`` when cancellation tripped outside
    a scheduler run); ``total_nodes`` is the graph's launch count, so
    callers can report partial progress without re-deriving it.  A
    split-k fold or a row-band gather is not a node: it runs in the
    entry point after the scheduler returns.
    """

    def __init__(
        self,
        reason: str,
        *,
        nodes_completed: tuple[int, ...] | None = None,
        total_nodes: int | None = None,
    ):
        progress = (
            ""
            if nodes_completed is None or total_nodes is None
            else f" after {len(nodes_completed)}/{total_nodes} node(s)"
        )
        super().__init__(f"operation cancelled{progress}: {reason}")
        self.reason = reason
        self.nodes_completed = nodes_completed
        self.total_nodes = total_nodes


class CancellationToken:
    """A thread-safe one-way flag: once cancelled, always cancelled.

    The first :meth:`cancel` call wins the reason; later calls are
    idempotent no-ops, so racing cancellers (a deadline watchdog and a
    client disconnect) produce one stable reason on every error raised
    afterwards.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    @property
    def reason(self) -> str:
        with self._lock:
            return self._reason

    def raise_if_cancelled(
        self,
        *,
        nodes_completed: tuple[int, ...] | None = None,
        total_nodes: int | None = None,
    ) -> None:
        """Raise :class:`OperationCancelled` when the token is cancelled."""
        with self._lock:
            if not self._cancelled:
                return
            reason = self._reason
        raise OperationCancelled(
            reason,
            nodes_completed=nodes_completed,
            total_nodes=total_nodes,
        )
