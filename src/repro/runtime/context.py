"""Ambient execution configuration: one object instead of loose keywords.

Every dispatch decision the runtime used to thread by hand — which backend
runs the mmo, which emulated device it runs on, where launch records go —
lives in one immutable :class:`ExecutionContext`.  A context variable
supplies the ambient default, so the three ways of configuring a run
compose cleanly:

- **ambient**: ``with use_context(backend="sparse"): apsp(graph)`` — every
  launch underneath routes through the sparse backend, no signature
  changes anywhere;
- **explicit**: pass ``context=ExecutionContext(...)`` to any runtime
  entry point;
- **legacy keywords**: ``backend="emulate"``/``device=dev`` keep working —
  they are folded into the resolved context by :func:`resolve_context`.

Backend names are validated here, once, against the registry in
:mod:`repro.backends` — every entry point fails fast with the list of
registered backends instead of deep in the stack.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.cache import PlanCache
    from repro.hooks.pipeline import Hook, HookPipeline
    from repro.hw.device import Simd2Device
    from repro.plan.autotune import AutotuneTable
    from repro.resilience.breaker import BreakerBoard
    from repro.resilience.budget import ExecutionBudget
    from repro.resilience.cancel import CancellationToken
    from repro.resilience.clock import Clock
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import Recovery
    from repro.runtime.trace import Trace
    from repro.sched.executor import Scheduler

__all__ = [
    "ExecutionContext",
    "default_context",
    "resolve_context",
    "use_context",
]


@dataclasses.dataclass(frozen=True)
class ExecutionContext:
    """Everything the dispatch layer needs to know to run one launch.

    Parameters
    ----------
    backend:
        Registry name of the backend that runs mmos (``"vectorized"``,
        ``"emulate"``, ``"sparse"``, or anything registered via
        :func:`repro.backends.register_backend`).
    device:
        Emulated device for device-oriented backends.  Backends that do
        not emulate hardware ignore it, so it is always safe to carry —
        this replaces the per-call-site "pass the device only when
        emulating" branching the runtime used to copy around.
    trace:
        Optional :class:`~repro.runtime.trace.Trace` sink; when set,
        every launch under this context appends a ``LaunchRecord``.
    plan_cache:
        :class:`~repro.compile.cache.PlanCache` the dispatch layer
        memoizes compiled artifacts in.  ``None`` (the default) means the
        process-wide shared cache
        (:func:`repro.compile.cache.default_plan_cache`); pass a private
        cache to isolate a workload's hit/miss counters, or
        ``PlanCache(maxsize=0)`` to disable memoization entirely.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`.  When set,
        the dispatch layer consults it at the execute boundary: scheduled
        launches are dropped or their outputs corrupted deterministically,
        and the multi-device partitioner hard-fails the planned devices.
        ``None`` (the default) injects nothing and costs nothing.
    hooks:
        Custom :class:`~repro.hooks.pipeline.Hook` instances appended to
        the built-in pipeline.  The built-in trace/fault hooks are
        implied by the ``trace``/``fault_plan`` fields and need not be
        listed here.
    autotune:
        :class:`~repro.plan.autotune.AutotuneTable` the planner refines
        its rankings from, filled by the autotune hook at the execute
        seam.  ``None`` (the default) means the process-wide shared table
        (:func:`repro.plan.autotune.default_autotune_table`) *when the
        context is adaptive* (``backend="auto"``); pass a private table
        to isolate a workload's observations.  Setting the field on a
        static-backend context opts that context's launches into feeding
        the table too.
    scheduler:
        :class:`~repro.sched.executor.Scheduler` that runs the launch
        graphs the loop-shaped entry points build (closure iterations,
        batch items, split-k partials, multi-device bands): tuples of
        independent launches whose outputs the entry point folds or
        gathers in launch order.  ``None`` (the default) means the
        serial executor — one launch at a time in launch order,
        bit-identical to the pre-graph dispatch; pass
        :class:`~repro.sched.executor.ThreadPoolExecutor` to run the
        launches concurrently (results stay bit-identical: outputs are
        combined in launch order and fault ordinals are assigned at
        build time).
    clock:
        Injectable :class:`~repro.resilience.clock.Clock` behind every
        time read and sleep under this context (launch wall times,
        deadline charges, retry backoff).  ``None`` (the default) means
        the shared real monotonic clock; tests and chaos runs pass a
        :class:`~repro.resilience.clock.VirtualClock` so time-dependent
        behaviour replays deterministically.
    budget:
        Optional :class:`~repro.resilience.budget.ExecutionBudget`.
        When set, every launch is charged at the ``begin_launch`` hook
        seam and both schedulers check the deadline before each launch
        starts; exhaustion raises the typed
        :class:`~repro.resilience.budget.DeadlineExceeded` /
        :class:`~repro.resilience.budget.BudgetExhausted` carrying
        partial-progress diagnostics.  ``None`` costs nothing.
    cancel:
        Optional :class:`~repro.resilience.cancel.CancellationToken`.
        When set, both schedulers check it before each launch starts:
        in-flight launches drain, pending launches never start, and the
        run raises :class:`~repro.resilience.cancel.OperationCancelled`
        reporting exactly which launch indices completed.  ``None``
        costs nothing.
    breakers:
        Optional :class:`~repro.resilience.breaker.BreakerBoard` of
        per-backend circuit breakers.  When set, the launch-node
        recovery driver (under a ``recovery`` policy) and the ``"auto"``
        planner skip open backends (half-open probe launches recover
        them), fed by failure events through the hook pipeline.
        ``None`` costs nothing.
    recovery:
        Optional :class:`~repro.resilience.policy.Recovery`: ABFT
        checking, retries and backend fallback for every launch under
        this context.  The scheduler's one recovery driver
        (:func:`repro.sched.executor._run_launch`) reads it, so every
        entry point that launches — ``mmo_tiled``, batched, split-k,
        closure (banded or not), multi-device bands — recovers the same
        way.  ``None`` (the default) runs each launch once and costs
        nothing.
    """

    backend: str = "vectorized"
    device: "Simd2Device | None" = None
    trace: "Trace | None" = None
    plan_cache: "PlanCache | None" = None
    fault_plan: "FaultPlan | None" = None
    hooks: "tuple[Hook, ...]" = ()
    autotune: "AutotuneTable | None" = None
    scheduler: "Scheduler | None" = None
    clock: "Clock | None" = None
    budget: "ExecutionBudget | None" = None
    cancel: "CancellationToken | None" = None
    breakers: "BreakerBoard | None" = None
    recovery: "Recovery | None" = None

    def replace(self, **overrides) -> "ExecutionContext":
        """A copy with the given fields replaced (context is immutable).

        A copy that changes only ``recovery`` shares this context's hook
        pipeline, which does not depend on it, so a per-call policy
        (``resilient_mmo``) does not rebuild the pipeline on every call.
        """
        copy = dataclasses.replace(self, **overrides)
        if overrides.keys() == {"recovery"}:
            object.__setattr__(copy, "_pipeline", self.pipeline)
        return copy

    @property
    def pipeline(self) -> "HookPipeline":
        """The lifecycle hook pipeline this context's fields imply.

        Assembled lazily on first access and cached on the instance (the
        dataclass is frozen but not slotted, so ``object.__setattr__``
        can stash the derived pipeline without widening the equality or
        hash contract — ``__eq__``/``__hash__`` only see declared
        fields).  Every runtime entry point dispatches through this one
        pipeline instead of hand-threading trace/fault/validation.
        """
        pipe = self.__dict__.get("_pipeline")
        if pipe is None:
            from repro.hooks.pipeline import build_pipeline

            pipe = build_pipeline(self)
            object.__setattr__(self, "_pipeline", pipe)
        return pipe


#: Ambient context; ``None`` means "nothing installed, use the fallback".
_CURRENT: contextvars.ContextVar["ExecutionContext | None"] = contextvars.ContextVar(
    "simd2_execution_context", default=None
)
_FALLBACK = ExecutionContext()


def _validate_backend(name: str) -> None:
    # Late import: repro.backends depends on repro.runtime, not vice versa.
    from repro.backends.base import get_backend

    get_backend(name)


def default_context() -> ExecutionContext:
    """The ambient context (installed by :func:`use_context`, else defaults)."""
    current = _CURRENT.get()
    return current if current is not None else _FALLBACK


def resolve_context(
    context: "ExecutionContext | None" = None,
    /,
    *,
    backend: str | None = None,
    device: "Simd2Device | None" = None,
) -> ExecutionContext:
    """Fold legacy keywords over a base context and validate the backend.

    ``context`` defaults to the ambient context; a non-``None``
    ``backend`` or ``device`` overrides the corresponding field.  This is
    the single place the runtime entry points turn their keyword shims
    into a context, so the backend name is checked exactly once per call,
    up front.
    """
    resolved = context if context is not None else default_context()
    overrides: dict[str, object] = {}
    if backend is not None:
        overrides["backend"] = backend
    if device is not None:
        overrides["device"] = device
    if overrides:
        resolved = dataclasses.replace(resolved, **overrides)
    _validate_backend(resolved.backend)
    return resolved


@contextlib.contextmanager
def use_context(
    context: "ExecutionContext | None" = None, /, **overrides
) -> Iterator[ExecutionContext]:
    """Install an ambient context for the dynamic extent of the block.

    >>> with use_context(backend="sparse", trace=Trace()) as ctx:
    ...     apsp(graph)                 # routes through spGEMM, traced
    ...     ctx.trace.summary()

    Field overrides apply on top of ``context`` (or the current ambient
    context when omitted), and the backend name is validated eagerly so a
    typo fails at the ``with`` statement, not at the first launch.
    """
    base = context if context is not None else default_context()
    installed = dataclasses.replace(base, **overrides) if overrides else base
    _validate_backend(installed.backend)
    token = _CURRENT.set(installed)
    try:
        yield installed
    finally:
        _CURRENT.reset(token)
