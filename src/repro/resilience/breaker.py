"""Per-backend circuit breakers: stop dispatching to a sick substrate.

A :class:`~repro.resilience.policy.FallbackChain` walks every backend no
matter how persistently one fails; at serving rates that means every
request pays the sick backend's failure latency before degrading.  The
classic fix is a **circuit breaker** per backend — a
closed → open → half-open state machine:

- **closed** — healthy; launches flow.  Failures accumulate; at
  ``failure_threshold`` the breaker *opens*.
- **open** — launches are skipped outright (the fallback walk and the
  planner treat the backend as incapable) until ``cooldown_s`` has
  elapsed on the board's :class:`~repro.resilience.clock.Clock`.
- **half-open** — after the cooldown, exactly one *probe* launch is
  admitted.  Probe success closes the breaker (the backend is
  restored); probe failure re-opens it for another cooldown.  A probe
  whose outcome is never reported times out after another cooldown, so
  a crashed prober cannot wedge the state machine.

The :class:`BreakerBoard` keys one breaker per backend name and is fed
through the hook pipeline: :class:`BreakerHook` (assembled whenever
``context.breakers`` is set) counts ``backend_failure`` /
``device_failure`` :class:`~repro.runtime.trace.ResilienceEvent`\\ s
against the named backend and reports half-open probe completions from
the ``post_execute`` seam.  Failure counts are *since the breaker last
closed*: a verified success (the launch-node recovery driver records
one after its ABFT check passes) or a completed
probe resets them, while an unverified launch merely not-raising does
not — a backend that returns corrupt results still accumulates the
verification failures that open it.

Consumers: the launch-node recovery driver in :mod:`repro.sched.executor`
(every launch under a context ``recovery`` policy) calls
:meth:`BreakerBoard.try_acquire` before each backend in its
walk (skipping open ones with a ``breaker_open`` event and a
:class:`BreakerOpen` cause); the ``"auto"`` planning backend filters
blocked backends out of its :class:`~repro.plan.planner.DispatchPlan`
and stamps the skips on the plan (surfaced as
``PlanRecord.breaker_skipped`` through ``on_plan``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.hooks.pipeline import Hook
from repro.resilience.clock import Clock, default_clock
from repro.resilience.faults import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hooks.pipeline import Launch
    from repro.runtime.context import ExecutionContext
    from repro.runtime.trace import ResilienceEvent

__all__ = [
    "BreakerBoard",
    "BreakerOpen",
    "BreakerHook",
    "CircuitBreaker",
    "BREAKER_HOOK",
]

#: Event kinds the board counts as failures of the event's backend.
_FAILURE_KINDS = frozenset({"backend_failure", "device_failure"})


class BreakerOpen(ResilienceError):
    """A launch was skipped because the backend's breaker is open."""

    def __init__(self, backend: str, *, state: str = "open"):
        super().__init__(
            f"backend {backend!r} skipped: circuit breaker is {state}"
        )
        self.backend = backend
        self.state = state


class CircuitBreaker:
    """One backend's closed → open → half-open state machine.

    Not internally locked — the :class:`BreakerBoard` serialises access;
    a standalone instance (tests) must be driven from one thread.  Time
    arrives as explicit ``now`` readings so the machine itself stays
    clock-agnostic and trivially property-testable.
    """

    __slots__ = (
        "failure_threshold",
        "cooldown_s",
        "state",
        "failures",
        "opened_at",
        "probe_started_at",
        "opens",
        "probes",
    )

    def __init__(self, *, failure_threshold: int = 3, cooldown_s: float = 1.0):
        if failure_threshold <= 0:
            raise ResilienceError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if cooldown_s < 0.0:
            raise ResilienceError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.failures = 0
        self.opened_at: float | None = None
        self.probe_started_at: float | None = None
        self.opens = 0
        self.probes = 0

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opened_at = now
        self.probe_started_at = None
        self.opens += 1

    def allow(self, now: float, *, claim: bool = True) -> bool:
        """Whether a launch may proceed right now.

        With ``claim`` (the default) a permitted launch on a non-closed
        breaker claims the half-open probe slot; ``claim=False`` is the
        passive form planners use to *filter* without spending the
        probe they may not dispatch.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            assert self.opened_at is not None
            if now - self.opened_at < self.cooldown_s:
                return False
            if claim:
                self.state = "half-open"
                self.probe_started_at = now
                self.probes += 1
            return True
        # half-open: one probe in flight; re-admit only when it timed out.
        assert self.probe_started_at is not None
        if now - self.probe_started_at < self.cooldown_s:
            return False
        if claim:
            self.probe_started_at = now
            self.probes += 1
        return True

    def record_success(self, *, probe_only: bool = False) -> None:
        """A verified success (or, with ``probe_only``, a completed probe).

        ``probe_only=True`` is the hook-seam form: an exception-free
        launch proves enough to close a half-open probe, but it is not
        the verified evidence that resets a *closed* breaker's count —
        a backend returning corrupt results completes launches too.
        """
        if self.state == "half-open":
            self.state = "closed"
            self.failures = 0
            self.opened_at = None
            self.probe_started_at = None
            return
        if self.state == "closed" and not probe_only:
            self.failures = 0
        # open: an in-flight straggler from before the trip proves nothing.

    def record_failure(self, now: float) -> None:
        if self.state == "half-open":
            self._trip(now)  # probe failed: re-open for another cooldown
            return
        if self.state == "closed":
            self.failures += 1
            if self.failures >= self.failure_threshold:
                self._trip(now)
        # open: already tripped; keep the original cooldown origin.


class BreakerBoard:
    """Thread-safe registry of one :class:`CircuitBreaker` per backend.

    ``clock=None`` reads the shared monotonic clock; chaos runs and
    tests pass a :class:`~repro.resilience.clock.VirtualClock` so
    cooldowns elapse deterministically.  Breakers are created lazily on
    first touch, all with the board's threshold/cooldown.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock: Clock | None = None,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def _now(self) -> float:
        clock = self._clock if self._clock is not None else default_clock()
        return clock.now()

    def _ensure(
        self, breakers: dict[str, CircuitBreaker], backend: str
    ) -> CircuitBreaker:
        """Lazily create ``backend``'s breaker (call holding the lock)."""
        breaker = breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                cooldown_s=self.cooldown_s,
            )
            breakers[backend] = breaker
        return breaker

    def try_acquire(self, backend: str) -> bool:
        """Admit a launch to ``backend`` (claiming the probe if half-open)."""
        now = self._now()
        with self._lock:
            return self._ensure(self._breakers, backend).allow(now, claim=True)

    def blocked(self, backend: str) -> bool:
        """Passive filter: would a launch be refused right now?

        Never claims the probe slot — planners filter many candidates
        but dispatch one, and a claimed-but-undispatched probe would
        block the real probe for a whole cooldown.
        """
        now = self._now()
        with self._lock:
            return not self._ensure(self._breakers, backend).allow(
                now, claim=False
            )

    def record_success(self, backend: str, *, probe_only: bool = False) -> None:
        with self._lock:
            self._ensure(self._breakers, backend).record_success(
                probe_only=probe_only
            )

    def record_failure(self, backend: str) -> None:
        now = self._now()
        with self._lock:
            self._ensure(self._breakers, backend).record_failure(now)

    def state_of(self, backend: str) -> str:
        with self._lock:
            breaker = self._breakers.get(backend)
            return "closed" if breaker is None else breaker.state

    def open_backends(self) -> tuple[str, ...]:
        """Backends currently not closed (open or probing), sorted."""
        with self._lock:
            return tuple(
                sorted(
                    name
                    for name, breaker in self._breakers.items()
                    if breaker.state != "closed"
                )
            )

    def snapshot(self) -> dict[str, dict]:
        """Per-backend state for artifacts and diagnostics."""
        with self._lock:
            return {
                name: {
                    "state": breaker.state,
                    "failures": breaker.failures,
                    "opens": breaker.opens,
                    "probes": breaker.probes,
                }
                for name, breaker in sorted(self._breakers.items())
            }


class BreakerHook(Hook):
    """Feed the context's :class:`BreakerBoard` from the launch pipeline.

    Assembled automatically by :func:`~repro.hooks.pipeline
    .build_pipeline` whenever ``context.breakers`` is set.  ``on_event``
    counts ``backend_failure``/``device_failure`` events against the
    event's backend; ``post_execute`` reports a completed launch as
    *probe feedback only* — it closes a half-open breaker (the planner's
    recovery path) but does not reset a closed breaker's failure count,
    which only verified successes do (see the module docstring).
    """

    def post_execute(self, launch: "Launch") -> None:
        board = launch.context.breakers
        if board is None or launch.degenerate:
            return
        board.record_success(launch.context.backend, probe_only=True)

    def on_event(
        self, context: "ExecutionContext", event: "ResilienceEvent"
    ) -> None:
        board = context.breakers
        if board is None or event.kind not in _FAILURE_KINDS:
            return
        board.record_failure(event.backend)


#: Shared stateless instance used by the default pipeline assembly.
BREAKER_HOOK = BreakerHook()
