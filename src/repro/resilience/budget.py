"""Execution budgets: wall-clock deadlines and launch/retry quotas.

The serving tier's SLO story needs the runtime to be *time-aware*: a
request that has blown its deadline must stop consuming the machine, and
it must say exactly how far it got.  An :class:`ExecutionBudget` rides on
the :class:`~repro.runtime.context.ExecutionContext` (like a
:class:`~repro.resilience.faults.FaultPlan`, it is mutable state on a
frozen context) and is charged at two seams:

- the **begin_launch hook seam** — :class:`BudgetHook` (assembled
  automatically whenever ``context.budget`` is set) charges one launch
  and checks the deadline before every backend invocation, on every
  dispatch path;
- the **scheduler's launch dispatch** — both executors in
  :mod:`repro.sched.executor` check the deadline before each launch
  starts, so a graph run stops *between* launches (in-flight launches
  drain) and the raised error reports which launch indices completed.

Exhaustion is typed: :class:`DeadlineExceeded` for the clock,
:class:`BudgetExhausted` for the quotas, both carrying partial-progress
diagnostics (launches completed, launches and retries spent, elapsed
seconds).  Time always flows through the context's injectable
:class:`~repro.resilience.clock.Clock`, so a
:class:`~repro.resilience.clock.VirtualClock` makes every deadline test
and chaos run deterministic.  Retry backoff sleeps are charged against
the deadline via :meth:`ExecutionBudget.charge_sleep` — a sleep that
would overrun the deadline is cut short and raises instead of wasting
the remaining budget waiting.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.hooks.pipeline import Hook
from repro.resilience.clock import Clock, resolve_clock
from repro.resilience.faults import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.hooks.pipeline import Launch
    from repro.isa.opcodes import MmoOpcode
    from repro.runtime.context import ExecutionContext

__all__ = [
    "BudgetError",
    "BudgetExhausted",
    "BudgetHook",
    "DeadlineExceeded",
    "ExecutionBudget",
    "BUDGET_HOOK",
]


class BudgetError(ResilienceError):
    """Base of budget exhaustion errors; carries partial-progress state.

    ``nodes_completed`` is the tuple of the graph's launch indices that
    finished before the deadline tripped (``None`` when the trip happened
    outside a scheduler run; a fold or gather is the entry point's, not a
    node); ``launches_spent``/``retries_spent`` are the charges
    accrued so far and ``elapsed_s`` the budget's age on its clock.
    """

    def __init__(
        self,
        message: str,
        *,
        elapsed_s: float = 0.0,
        deadline_s: float | None = None,
        launches_spent: int = 0,
        retries_spent: int = 0,
        nodes_completed: tuple[int, ...] | None = None,
    ):
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        self.launches_spent = launches_spent
        self.retries_spent = retries_spent
        self.nodes_completed = nodes_completed


class DeadlineExceeded(BudgetError):
    """The budget's wall-clock deadline passed."""


class BudgetExhausted(BudgetError):
    """A launch or retry quota ran out before the work finished."""


class ExecutionBudget:
    """A mutable deadline/quota tracker shared by one logical request.

    Parameters
    ----------
    deadline_s:
        Wall-clock allowance in seconds, measured on the charging clock
        from the budget's first charge or check.  ``None`` means no
        deadline.
    max_launches:
        How many launches the budget funds, charged at the
        ``begin_launch`` seam by :class:`BudgetHook` — every launch
        opened there counts, degenerate empty-output ones included
        (they still consume a dispatch round trip).  ``None`` means
        unlimited.
    max_retries:
        How many *recovery* relaunches the budget funds across every
        policy consulting it (the launch-node recovery driver in
        :mod:`repro.sched.executor` charges one per retry, on every
        entry point).  ``None`` means unlimited.

    The tracker is thread-safe (a graph's launches charge concurrently) and,
    like :class:`~repro.resilience.faults.FaultPlan`, deliberately
    mutable on the frozen context: one budget spans every launch of the
    request it meters.
    """

    def __init__(
        self,
        *,
        deadline_s: float | None = None,
        max_launches: int | None = None,
        max_retries: int | None = None,
    ):
        if deadline_s is not None and deadline_s < 0.0:
            raise ResilienceError(f"deadline_s must be >= 0, got {deadline_s}")
        if max_launches is not None and max_launches < 0:
            raise ResilienceError(
                f"max_launches must be >= 0, got {max_launches}"
            )
        if max_retries is not None and max_retries < 0:
            raise ResilienceError(f"max_retries must be >= 0, got {max_retries}")
        self.deadline_s = deadline_s
        self.max_launches = max_launches
        self.max_retries = max_retries
        self._lock = threading.Lock()
        self._started_at: float | None = None
        self._launches = 0
        self._retries = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def launches_spent(self) -> int:
        with self._lock:
            return self._launches

    @property
    def retries_spent(self) -> int:
        with self._lock:
            return self._retries

    def elapsed_s(self, clock: Clock) -> float:
        """Seconds since the first charge/check (0.0 before any)."""
        with self._lock:
            if self._started_at is None:
                return 0.0
            return max(0.0, clock.now() - self._started_at)

    def remaining_s(self, clock: Clock) -> float | None:
        """Deadline seconds left (``None`` when no deadline is set)."""
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed_s(clock))

    def snapshot(self, clock: Clock) -> dict:
        """Diagnostics dict (what the chaos artifact records per run)."""
        return {
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s(clock),
            "launches_spent": self.launches_spent,
            "max_launches": self.max_launches,
            "retries_spent": self.retries_spent,
            "max_retries": self.max_retries,
        }

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def _start_locked(self, clock: Clock) -> float:
        if self._started_at is None:
            self._started_at = clock.now()
        return self._started_at

    def _deadline_error(
        self,
        elapsed: float,
        nodes_completed: tuple[int, ...] | None,
        where: str,
    ) -> DeadlineExceeded:
        suffix = f" at {where}" if where else ""
        progress = (
            ""
            if nodes_completed is None
            else f", {len(nodes_completed)} node(s) completed"
        )
        return DeadlineExceeded(
            f"deadline of {self.deadline_s}s exceeded{suffix} "
            f"(elapsed {elapsed:.6f}s, {self._launches} launch(es), "
            f"{self._retries} retry(ies) spent{progress})",
            elapsed_s=elapsed,
            deadline_s=self.deadline_s,
            launches_spent=self._launches,
            retries_spent=self._retries,
            nodes_completed=nodes_completed,
        )

    def check_deadline(
        self,
        clock: Clock,
        *,
        nodes_completed: tuple[int, ...] | None = None,
        where: str = "",
    ) -> None:
        """Raise :class:`DeadlineExceeded` once the deadline has passed.

        The first check starts the budget's clock, so a budget created
        ahead of time does not age while idle.
        """
        with self._lock:
            started = self._start_locked(clock)
            if self.deadline_s is None:
                return
            elapsed = max(0.0, clock.now() - started)
            if elapsed > self.deadline_s:
                raise self._deadline_error(elapsed, nodes_completed, where)

    def charge_launch(self, clock: Clock) -> None:
        """One backend launch: check the deadline, spend a launch slot."""
        with self._lock:
            started = self._start_locked(clock)
            if self.deadline_s is not None:
                elapsed = max(0.0, clock.now() - started)
                if elapsed > self.deadline_s:
                    raise self._deadline_error(elapsed, None, "begin_launch")
            self._launches += 1
            if (
                self.max_launches is not None
                and self._launches > self.max_launches
            ):
                raise BudgetExhausted(
                    f"launch budget of {self.max_launches} exhausted "
                    f"({self._retries} retry(ies) also spent)",
                    elapsed_s=max(0.0, clock.now() - started),
                    deadline_s=self.deadline_s,
                    launches_spent=self._launches,
                    retries_spent=self._retries,
                )

    def charge_retry(self, clock: Clock) -> None:
        """One recovery relaunch: spend a retry slot."""
        with self._lock:
            started = self._start_locked(clock)
            self._retries += 1
            if self.max_retries is not None and self._retries > self.max_retries:
                raise BudgetExhausted(
                    f"retry budget of {self.max_retries} exhausted "
                    f"({self._launches} launch(es) also spent)",
                    elapsed_s=max(0.0, clock.now() - started),
                    deadline_s=self.deadline_s,
                    launches_spent=self._launches,
                    retries_spent=self._retries,
                )

    def charge_sleep(self, clock: Clock, seconds: float) -> None:
        """Sleep through ``clock``, charged against the deadline.

        A backoff delay that would overrun the deadline is not slept in
        full: the budget sleeps only the remaining allowance and raises
        :class:`DeadlineExceeded` — waiting past a blown deadline helps
        nobody.  Without a deadline the full delay is slept.
        """
        with self._lock:
            started = self._start_locked(clock)
        if seconds <= 0.0 and self.deadline_s is None:
            return
        if self.deadline_s is None:
            clock.sleep(seconds)
            return
        elapsed = max(0.0, clock.now() - started)
        remaining = self.deadline_s - elapsed
        if seconds >= remaining:
            if remaining > 0.0:
                clock.sleep(remaining)
            with self._lock:
                raise self._deadline_error(
                    max(0.0, clock.now() - started), None, "retry backoff"
                )
        clock.sleep(seconds)


class BudgetHook(Hook):
    """Charge the context's budget at the ``begin_launch`` seam.

    Assembled automatically by :func:`~repro.hooks.pipeline
    .build_pipeline` whenever ``context.budget`` is set, first in the
    built-in order.  Entry points validate their inputs before the
    pipeline opens a launch, so a launch rejected for malformed operands
    spends no budget, mirroring the fault plan's ordinal discipline.
    Provides ``launchless_pre`` so a budget-only context keeps the
    allocation-free fast path.
    """

    def pre_execute(self, launch: "Launch") -> None:
        budget = launch.context.budget
        if budget is not None:
            budget.charge_launch(resolve_clock(launch.context))

    def launchless_pre(
        self,
        context: "ExecutionContext",
        api: str,
        opcode: "MmoOpcode",
        a: "np.ndarray",
        b: "np.ndarray",
        c: "np.ndarray | None",
    ) -> None:
        budget = context.budget
        if budget is not None:
            budget.charge_launch(resolve_clock(context))


#: Shared stateless instance used by the default pipeline assembly.
BUDGET_HOOK = BudgetHook()
