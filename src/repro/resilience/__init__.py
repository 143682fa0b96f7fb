"""Resilient execution layer for SIMD² mmos.

Cooperating pieces, all opt-in and all observable through the trace:

- :mod:`repro.resilience.faults` — deterministic fault injection at the
  execute seam (:class:`FaultPlan` on the execution context);
- :mod:`repro.resilience.checksum` — semiring-generalized ABFT: ⊕-fold
  row/column checksums verified on every checked launch;
- :mod:`repro.resilience.policy` — recovery: :class:`Recovery`, the one
  policy ``ExecutionContext.recovery`` holds, built from
  :class:`RetryPolicy` (with seeded exponential backoff and the
  permanent/transient taxonomy) and :class:`FallbackChain`, plus
  :func:`resilient_mmo`;
- :mod:`repro.resilience.watchdog` — closure-iteration health checks
  (NaN poisoning, non-monotone progress, oscillation);
- :mod:`repro.resilience.closure` — :func:`resilient_closure`, the whole
  stack composed over the closure loop, on one device or many;
- :mod:`repro.resilience.clock` — the injectable :class:`Clock` behind
  every time read and sleep (:class:`VirtualClock` for deterministic
  replay);
- :mod:`repro.resilience.budget` — :class:`ExecutionBudget` deadlines
  and launch/retry quotas, charged at the hook seam and the scheduler;
- :mod:`repro.resilience.cancel` — :class:`CancellationToken`
  cooperative cancellation between scheduler nodes;
- :mod:`repro.resilience.breaker` — :class:`BreakerBoard` per-backend
  circuit breakers fed through the hook pipeline.

See ``docs/RESILIENCE.md`` for the design and the exactness argument.
"""

from repro.resilience.breaker import (
    BreakerBoard,
    BreakerOpen,
    CircuitBreaker,
)
from repro.resilience.budget import (
    BudgetError,
    BudgetExhausted,
    DeadlineExceeded,
    ExecutionBudget,
)
from repro.resilience.cancel import CancellationToken, OperationCancelled
from repro.resilience.checksum import (
    ChecksumReport,
    ChecksumUnsupported,
    CorruptionDetected,
    MmoChecksums,
    mmo_checksums,
)
from repro.resilience.clock import (
    Clock,
    MonotonicClock,
    VirtualClock,
    default_clock,
    resolve_clock,
)
from repro.resilience.closure import ResilientClosureResult, resilient_closure
from repro.resilience.faults import (
    DeviceFailure,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceError,
)
from repro.resilience.policy import (
    PERMANENT,
    TRANSIENT,
    FallbackChain,
    Recovery,
    ResilienceExhausted,
    RetryPolicy,
    classify,
    resilient_mmo,
)
from repro.resilience.watchdog import ClosureDiagnostics, ClosureWatchdog

__all__ = [
    "BreakerBoard",
    "BreakerOpen",
    "BudgetError",
    "BudgetExhausted",
    "CancellationToken",
    "ChecksumReport",
    "ChecksumUnsupported",
    "CircuitBreaker",
    "Clock",
    "ClosureDiagnostics",
    "ClosureWatchdog",
    "CorruptionDetected",
    "DeadlineExceeded",
    "DeviceFailure",
    "ExecutionBudget",
    "FallbackChain",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "MonotonicClock",
    "OperationCancelled",
    "PERMANENT",
    "Recovery",
    "ResilienceError",
    "ResilienceExhausted",
    "ResilientClosureResult",
    "RetryPolicy",
    "TRANSIENT",
    "VirtualClock",
    "classify",
    "default_clock",
    "mmo_checksums",
    "resilient_closure",
    "resilient_mmo",
    "resolve_clock",
]
