"""Recovery policies: bounded retries and backend fallback chains.

The resilience layer separates *detection* (fault plan events, ABFT
checksums, hardware errors) from *response*.  This module defines the
response as one value, :class:`Recovery`, held on the execution context
(``ExecutionContext.recovery``); one driver applies it — the launch-node
recovery driver in :mod:`repro.sched.executor`, which every launch under
the context runs through, whichever entry point built it:

- :class:`Recovery` — the policy: whether results are ABFT-checked, the
  retry policy, the fallback chain, and the plus-mul checksum tolerance.
  ``recovery=None`` (the default) runs every launch once.
- :class:`RetryPolicy` — how many times to relaunch after a retryable
  failure (an injected drop, a detected corruption), and how long to
  back off between attempts (exponential with seeded deterministic
  jitter, slept on the context's injectable clock and charged against
  its deadline).  Retries are loud: every attempt lands as a ``retry``
  :class:`~repro.runtime.trace.ResilienceEvent` on the context's trace.
- :class:`FallbackChain` — which backends to degrade through when a
  backend keeps failing (e.g. ``vectorized → emulate``: if the fast path
  is corrupt or the emulated device faults, fall back to the other
  substrate and keep serving).  Each hop records a ``fallback`` event.
- :func:`resilient_mmo` — ``mmo_tiled`` under a :class:`Recovery` that
  falls back down the planner's chain by default, raising
  :class:`ResilienceExhausted` only when every avenue is spent.  When
  the context carries a
  :class:`~repro.resilience.breaker.BreakerBoard`, open backends are
  skipped outright (``breaker_open`` event, :class:`~repro.resilience
  .breaker.BreakerOpen` cause) and every failure/verified-success feeds
  the board.

The failure **taxonomy** is explicit: :data:`PERMANENT` errors
(malformed operands, compilation bugs) are deterministic — relaunching
reruns the same rejection, so :meth:`RetryPolicy.should_retry` and
:meth:`FallbackChain.should_fall_back` refuse them no matter what
``retry_on``/``fallback_on`` tuples say.  :data:`TRANSIENT` errors
(injected faults, detected corruption, device failures) are the ones
recovery can outrun.  :func:`classify` names the bucket.

Multi-device recovery (band repartitioning) lives with the partitioner in
:mod:`repro.runtime.multidevice`; it consumes the same :class:`RetryPolicy`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING

import numpy as np

from repro.compile.artifact import CompileError
from repro.hw.errors import HardwareError
from repro.resilience.checksum import CorruptionDetected
from repro.resilience.faults import DeviceFailure, InjectedFault, ResilienceError
from repro.runtime.context import resolve_context
from repro.runtime.kernels import OperandValidationError, mmo_tiled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.semiring import Semiring
    from repro.isa.opcodes import MmoOpcode
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats

__all__ = [
    "FallbackChain",
    "PERMANENT",
    "Recovery",
    "ResilienceExhausted",
    "RetryPolicy",
    "TRANSIENT",
    "classify",
    "resilient_mmo",
]

#: Failures a retry on the same backend can plausibly outrun: transient
#: injected faults and detected output corruption.
RETRYABLE = (CorruptionDetected, InjectedFault)

#: Failures that justify degrading to the next backend in the chain:
#: everything retryable plus hard device faults.
FALLBACK_ON = RETRYABLE + (HardwareError, DeviceFailure)

#: Deterministic failures no relaunch can outrun: value-poisoned or
#: malformed operands and compilation bugs rerun identically, so retry
#: and fallback refuse them even when a custom ``retry_on``/``fallback_on``
#: tuple would match (e.g. a blanket ``(Exception,)``).
PERMANENT = (OperandValidationError, CompileError)

#: Failures recovery can plausibly outrun: the retryable set plus hard
#: device faults (a relaunch lands on a healthy substrate or a fallback
#: backend).
TRANSIENT = FALLBACK_ON


def classify(exc: BaseException) -> str:
    """``"permanent"``, ``"transient"``, or ``"unknown"`` for a failure.

    Permanence wins when both match (a hypothetical subclass): retrying
    a deterministic rejection cannot help, whatever else it subclasses.
    """
    if isinstance(exc, PERMANENT):
        return "permanent"
    if isinstance(exc, TRANSIENT):
        return "transient"
    return "unknown"


class ResilienceExhausted(ResilienceError):
    """Every retry and every fallback backend failed.

    ``causes`` holds the terminal exception per attempted backend, in
    chain order, so callers can see the whole degradation path.
    """

    def __init__(self, causes: list[tuple[str, BaseException]]):
        chain = "; ".join(f"{name}: {exc}" for name, exc in causes)
        super().__init__(f"all recovery avenues exhausted ({chain})")
        self.causes = tuple(causes)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded relaunch of a failed launch on the same backend.

    ``max_retries`` counts *extra* attempts: ``max_retries=2`` allows up
    to three launches.  ``retry_on`` is the tuple of exception types worth
    retrying — defaults to transient faults and detected corruption
    (:data:`PERMANENT` errors are refused regardless: retrying a shape
    mismatch or a compiler bug reruns the same rejection).

    Backoff is exponential and off by default (``backoff_base_s=0.0``
    sleeps nothing, preserving the historical retry-immediately
    behaviour): the delay before the retry following 0-based attempt
    ``n`` is ``min(backoff_base_s * backoff_factor**n, backoff_max_s)``,
    widened by a symmetric jitter fraction drawn from a PRNG seeded from
    ``seed`` and ``n`` — the schedule is a pure function of the policy, so
    chaos runs replay byte-identically.  Sleeps flow through the
    context's :class:`~repro.resilience.clock.Clock` and are charged
    against its deadline (see :meth:`~repro.resilience.budget
    .ExecutionBudget.charge_sleep`).
    """

    max_retries: int = 2
    retry_on: tuple[type[BaseException], ...] = RETRYABLE
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ResilienceError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0.0:
            raise ResilienceError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ResilienceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_s < 0.0:
            raise ResilienceError(
                f"backoff_max_s must be >= 0, got {self.backoff_max_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether ``attempt`` (0-based) may be followed by another."""
        if isinstance(exc, PERMANENT):
            return False
        return attempt + 1 < self.max_attempts and isinstance(
            exc, self.retry_on
        )

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before the retry after 0-based ``attempt``."""
        if self.backoff_base_s <= 0.0:
            return 0.0
        delay = self.backoff_base_s * (self.backoff_factor ** attempt)
        delay = min(delay, self.backoff_max_s)
        if self.jitter > 0.0:
            rng = random.Random(self.seed * 0x9E3779B1 + attempt)
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclasses.dataclass(frozen=True)
class FallbackChain:
    """Ordered backends to degrade through when one keeps failing.

    The chain is consulted *after* the context's own backend; backends
    already tried are skipped, so ``FallbackChain(("vectorized",
    "emulate"))`` under a vectorized context degrades straight to the
    emulator.

    ``backends=None`` (the default) consumes the planner's ranked order
    for the launch (:func:`repro.plan.planner.planner_order`): fallback
    degrades cheapest-capable-first, density-aware, instead of walking a
    hard-coded pair — so a sparse launch falls back through ``sparse``
    before the emulator, and rings the sparse backend cannot run never
    route through it at all.
    """

    backends: tuple[str, ...] | None = None
    fallback_on: tuple[type[BaseException], ...] = FALLBACK_ON

    def plan(
        self,
        first: str,
        *,
        ring: "Semiring | str | MmoOpcode",
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None,
    ) -> tuple[str, ...]:
        """The full backend order for a launch starting at ``first``.

        With an explicit ``backends`` tuple the launch is ignored;
        otherwise its ring and operands parameterise the planner's
        capability-filtered, density-aware ranking.
        """
        if self.backends is not None:
            chain: tuple[str, ...] = self.backends
        else:
            from repro.plan.planner import planner_order  # lazy: peer layer

            chain = planner_order(ring, a, b, c)
        order = [first]
        for name in chain:
            if name not in order:
                order.append(name)
        return tuple(order)

    def should_fall_back(self, exc: BaseException) -> bool:
        if isinstance(exc, PERMANENT):
            return False  # deterministic rejection: every backend agrees
        return isinstance(exc, self.fallback_on)


@dataclasses.dataclass(frozen=True)
class Recovery:
    """How the one launch driver recovers every launch under a context.

    Held in ``ExecutionContext.recovery``; ``None`` there runs each
    launch once.  Under a recovery each launch walks its backend chain —
    the context's backend, then ``fallback``'s order once retries are
    spent (the context's backend alone when ``fallback`` is ``None``) —
    with up to ``retry.max_attempts`` attempts per backend (``retry=None``
    means :class:`RetryPolicy`'s defaults).  With ``checked`` every
    result is verified against its ⊕-fold ABFT checksums, computed once
    per launch before the first attempt; a mismatch is a retryable
    :class:`~repro.resilience.checksum.CorruptionDetected`.  A ring
    without checksums (plus-norm, min-mul/max-mul with a negative
    operand) raises :class:`~repro.resilience.checksum
    .ChecksumUnsupported` before any attempt.  ``rtol``/``atol`` bound
    the plus-mul comparison (see :class:`~repro.resilience.checksum
    .MmoChecksums`); idempotent rings compare exactly.
    """

    checked: bool = True
    retry: RetryPolicy | None = None
    fallback: FallbackChain | None = None
    rtol: float = 1e-4
    atol: float = 1e-6


def resilient_mmo(
    ring: "Semiring | str | MmoOpcode",
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    context: "ExecutionContext | None" = None,
    retry: RetryPolicy | None = None,
    fallback: FallbackChain | None = None,
    checked: bool = True,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> "tuple[np.ndarray, KernelStats]":
    """``mmo_tiled`` with ABFT verification, retries, and backend fallback.

    The launch runs under ``context`` with a :class:`Recovery` of the
    given fields, ``fallback`` defaulting to the planner-ordered
    :class:`FallbackChain`: up to ``retry.max_attempts`` launches per
    backend, each ABFT-verified when ``checked``, then the next backend
    in the chain.  Raises :class:`ResilienceExhausted` when the whole
    chain fails; non-recoverable errors (shape validation, poisoned
    operands, unknown rings) propagate before any launch.

    SLO integration, all opt-in through context fields:

    - ``ctx.breakers`` — backends whose breaker is open are skipped with
      a ``breaker_open`` event (the :class:`~repro.resilience.breaker
      .BreakerOpen` lands in the exhaustion causes); transient failures
      emit ``backend_failure`` events that feed the board through the
      hook pipeline, and a *verified* success records the full health
      reset (an unverified one only closes a half-open probe).
    - ``ctx.budget`` — each retry spends a retry slot
      (:class:`~repro.resilience.budget.BudgetExhausted` propagates
      typed) and backoff sleeps are charged against the deadline.
    - ``ctx.clock`` — backoff sleeps flow through the injectable clock,
      so a virtual clock replays the whole schedule deterministically.
    - ``ctx.cancel`` / the deadline — checked before the launch starts.
    """
    recovery = Recovery(
        checked=checked, retry=retry,
        fallback=fallback if fallback is not None else FallbackChain(),
        rtol=rtol, atol=atol,
    )
    ctx = resolve_context(context).replace(recovery=recovery)
    return mmo_tiled(ring, a, b, c, context=ctx, api="resilient_mmo")
