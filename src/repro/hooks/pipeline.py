"""Lifecycle hook pipeline: one seam for every cross-cutting launch concern.

Trace recording, fault injection, budgets, breakers, autotune feedback
and resilience events each apply to every runtime entry point
(``mmo_tiled``, ``execute_compiled``, closure, batched, split-k,
multi-device bands).  Rather than hand-thread each concern through
each entry point, this module carries **one pipeline** on the
:class:`~repro.runtime.context.ExecutionContext`, with hooks invoked at
three fixed lifecycle points plus two channels:

- ``post_compile`` — after the artifact is resolved (carries the cache
  hit flag);
- ``pre_execute``  — after the entry point validated its inputs, before
  the backend runs (budget charges, fault-plan ordinal claims);
- ``post_execute`` — after the backend returned (fault corruption,
  trace recording; a hook may replace ``launch.result``);
- ``on_event``     — the out-of-band channel resilience occurrences
  (retries, fallbacks, watchdog trips, checksum failures) flow through
  instead of hand-calling ``trace.record_event``;
- ``on_plan``      — the adaptive-dispatch channel: when the dispatch
  seam consults the planner (``backend="auto"``), the decision flows
  through here as a :class:`~repro.runtime.trace.PlanRecord`.

Hooks at each point fire in **registration order** (for the built-in
assembly: budget → fault → trace → breaker → autotune → custom hooks),
and the same order applies pre and post — so fault corruption always
lands before the trace record, and a raising budget/fault hook aborts
the launch *before* any record is written (no orphaned records).
Ring-input validation is not a hook: the entry point runs it once per
call before it plans, compiles or opens a launch.

Cost discipline: the pipeline is assembled once per context and cached;
each lifecycle point dispatches over a precomputed tuple of hooks that
actually override that point.  A pipeline with no execute hooks performs
**zero per-launch allocation** — :meth:`HookPipeline.begin_launch`
returns ``None`` and :meth:`HookPipeline.finish_launch` passes the
result straight through.  :func:`emit_event` constructs its
:class:`~repro.runtime.trace.ResilienceEvent` only when something
listens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.compile.artifact import CompiledMmo
    from repro.isa.opcodes import MmoOpcode
    from repro.plan.planner import DispatchPlan
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats
    from repro.runtime.trace import PlanRecord, ResilienceEvent

__all__ = [
    "Hook",
    "HookPipeline",
    "Launch",
    "build_pipeline",
    "emit_event",
]


class Hook:
    """Base class of lifecycle hooks.

    Subclass and override any subset of the five hook methods; the pipeline
    inspects which methods are overridden at assembly time and only ever
    invokes those, so an unoverridden point costs nothing per launch.
    Instances attach to a context via ``ExecutionContext(hooks=(...))``.
    """

    #: Optional allocation-free form of ``pre_execute`` with signature
    #: ``(context, api, opcode, a, b, c) -> None``.  When *every*
    #: pre-execute hook in a pipeline provides one and nothing listens on
    #: ``post_execute``, :meth:`HookPipeline.begin_launch` runs these
    #: directly and skips the :class:`Launch` allocation — this is how a
    #: budget-only pipeline keeps the hot path allocation-free.  Hooks
    #: that need cross-point state (fault ordinals) leave it ``None``.
    launchless_pre = None

    def post_compile(
        self,
        context: "ExecutionContext",
        api: str,
        compiled: "CompiledMmo",
        cache_hit: bool,
    ) -> None:
        """After the compiled artifact is resolved (``cache_hit`` tells how)."""

    def pre_execute(self, launch: "Launch") -> None:
        """After shape validation, before the backend executes.

        May raise to abort the launch (spent budgets, injected drops);
        nothing has been recorded yet at this point.
        """

    def post_execute(self, launch: "Launch") -> None:
        """After the backend returned; may replace ``launch.result``."""

    def on_event(self, context: "ExecutionContext", event: "ResilienceEvent") -> None:
        """An out-of-band resilience occurrence under this context."""

    def on_plan(self, context: "ExecutionContext", plan: "PlanRecord") -> None:
        """An adaptive-dispatch decision made at the dispatch seam."""


class Launch:
    """Mutable per-launch carrier threaded through the execute hooks.

    One ``Launch`` spans ``pre_execute`` → backend → ``post_execute``;
    hooks communicate across the two points by writing attributes
    (``FaultHook`` stores its claimed ordinal in ``fault_ordinal``,
    custom hooks may use the free-form ``notes`` slot).  ``result``,
    ``stats`` and ``wall_time_s`` are populated before ``post_execute``
    fires; a post hook that reassigns ``result`` (fault corruption)
    changes what the caller receives.

    ``degenerate`` marks empty-output fast paths (``m == 0`` or
    ``n == 0``): no backend runs, fault ordinals are not claimed, and
    the trace records ``wall_time_s = 0.0`` with ``cache_hit = None`` —
    exactly the pre-pipeline behaviour.
    """

    __slots__ = (
        "context",
        "api",
        "opcode",
        "a",
        "b",
        "c",
        "degenerate",
        "cache_hit",
        "optimizer_removed",
        "result",
        "stats",
        "wall_time_s",
        "fault_ordinal",
        "notes",
    )

    def __init__(
        self,
        context: "ExecutionContext",
        api: str,
        opcode: "MmoOpcode",
        a: "np.ndarray",
        b: "np.ndarray",
        c: "np.ndarray | None",
        *,
        degenerate: bool = False,
        cache_hit: bool | None = None,
        optimizer_removed: int = 0,
        fault_ordinal: int | None = None,
    ):
        self.context = context
        self.api = api
        self.opcode = opcode
        self.a = a
        self.b = b
        self.c = c
        self.degenerate = degenerate
        self.cache_hit = cache_hit
        self.optimizer_removed = optimizer_removed
        self.result: "np.ndarray | None" = None
        self.stats: "KernelStats | None" = None
        self.wall_time_s: float = 0.0
        self.fault_ordinal: int | None = fault_ordinal
        self.notes: dict | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Launch(api={self.api!r}, opcode={self.opcode.name}, "
            f"degenerate={self.degenerate})"
        )


def _overriders(hooks: "tuple[Hook, ...]", point: str) -> "tuple[Hook, ...]":
    """The hooks that actually override ``point``, in registration order."""
    base = getattr(Hook, point)
    return tuple(h for h in hooks if getattr(type(h), point, base) is not base)


class HookPipeline:
    """An ordered set of hooks, pre-sorted by lifecycle point.

    Immutable once built; :func:`build_pipeline` assembles the built-in
    hooks a context's fields imply (budget when a ``budget`` is set,
    fault when a ``fault_plan`` is set, trace when a ``trace`` is set,
    and so on) followed by the context's custom ``hooks`` tuple.
    """

    __slots__ = (
        "hooks",
        "_post_compile",
        "_pre_execute",
        "_post_execute",
        "_on_event",
        "_on_plan",
        "_launchless",
    )

    def __init__(self, hooks: Iterable[Hook] = ()):
        self.hooks = tuple(hooks)
        self._post_compile = _overriders(self.hooks, "post_compile")
        self._pre_execute = _overriders(self.hooks, "pre_execute")
        self._post_execute = _overriders(self.hooks, "post_execute")
        self._on_event = _overriders(self.hooks, "on_event")
        self._on_plan = _overriders(self.hooks, "on_plan")
        # Allocation-free fast path: usable only when no hook needs the
        # Launch carrier (see Hook.launchless_pre).
        launchless = tuple(h.launchless_pre for h in self._pre_execute)
        self._launchless = (
            launchless
            if not self._post_execute and all(fn is not None for fn in launchless)
            else None
        )

    # ------------------------------------------------------------------
    # compile seam
    # ------------------------------------------------------------------
    def post_compile(
        self,
        context: "ExecutionContext",
        api: str,
        compiled: "CompiledMmo",
        cache_hit: bool,
    ) -> None:
        for hook in self._post_compile:
            hook.post_compile(context, api, compiled, cache_hit)

    # ------------------------------------------------------------------
    # execute seam
    # ------------------------------------------------------------------
    def begin_launch(
        self,
        context: "ExecutionContext",
        api: str,
        opcode: "MmoOpcode",
        a: "np.ndarray",
        b: "np.ndarray",
        c: "np.ndarray | None",
        *,
        degenerate: bool = False,
        cache_hit: bool | None = None,
        optimizer_removed: int = 0,
        fault_ordinal: int | None = None,
    ) -> "Launch | None":
        """Open one launch: fire ``pre_execute`` and return the carrier.

        Returns ``None`` — with **no allocation** — when every
        pre-execute hook offers a ``launchless_pre`` form and nothing
        listens post-execute (true for a budget-only pipeline, and
        trivially for the default empty one); callers pass that straight
        to :meth:`finish_launch`, which then costs one ``is None``
        check.  A raising pre hook (spent budget, injected drop)
        propagates before anything is recorded.
        """
        launchless = self._launchless
        if launchless is not None:
            for fn in launchless:
                fn(context, api, opcode, a, b, c)
            return None
        launch = Launch(
            context,
            api,
            opcode,
            a,
            b,
            c,
            degenerate=degenerate,
            cache_hit=cache_hit,
            optimizer_removed=optimizer_removed,
            fault_ordinal=fault_ordinal,
        )
        for hook in self._pre_execute:
            hook.pre_execute(launch)
        return launch

    def finish_launch(
        self,
        launch: "Launch | None",
        result: "np.ndarray",
        stats: "KernelStats",
        wall_time_s: float,
    ) -> "np.ndarray":
        """Close one launch: fire ``post_execute`` and return the (possibly
        hook-replaced) result."""
        if launch is None:
            return result
        launch.result = result
        launch.stats = stats
        launch.wall_time_s = wall_time_s
        for hook in self._post_execute:
            hook.post_execute(launch)
        return launch.result

    # ------------------------------------------------------------------
    # event channel
    # ------------------------------------------------------------------
    @property
    def wants_events(self) -> bool:
        """Whether anything listens on ``on_event`` (guards event building)."""
        return bool(self._on_event)

    def emit(self, context: "ExecutionContext", event: "ResilienceEvent") -> None:
        for hook in self._on_event:
            hook.on_event(context, event)

    @property
    def wants_plans(self) -> bool:
        """Whether anything listens on ``on_plan`` (guards record building)."""
        return bool(self._on_plan)

    def emit_plan(self, context: "ExecutionContext", plan: "PlanRecord") -> None:
        for hook in self._on_plan:
            hook.on_plan(context, plan)

    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.hooks)

    def __len__(self) -> int:
        return len(self.hooks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(type(h).__name__ for h in self.hooks)
        return f"HookPipeline([{names}])"


#: The shared no-op pipeline (zero hooks, zero per-launch cost).
EMPTY_PIPELINE = HookPipeline()


def build_pipeline(context: "ExecutionContext") -> HookPipeline:
    """Assemble the pipeline a context's fields imply.

    Built-in order (also the firing order at every point): budget (only
    when ``context.budget`` is set; launchless, so a budget-only context
    keeps the allocation-free fast path) → fault (only when
    ``context.fault_plan`` is set) → trace (only when ``context.trace``
    is set) → breaker (only when ``context.breakers`` is set) → autotune
    (only for adaptive contexts: ``backend="auto"`` or an explicit
    ``autotune=`` table, so plain static contexts keep the
    allocation-free fast path) → the context's custom ``hooks``.  A
    default context gets no hooks at all.
    """
    from repro.hooks.builtin import FAULT_HOOK, TRACE_HOOK

    hooks: list[Hook] = []
    if getattr(context, "budget", None) is not None:
        # Lazy: repro.resilience sits above repro.hooks in the layering.
        from repro.resilience.budget import BUDGET_HOOK

        hooks.append(BUDGET_HOOK)
    if context.fault_plan is not None:
        hooks.append(FAULT_HOOK)
    if context.trace is not None:
        hooks.append(TRACE_HOOK)
    if getattr(context, "breakers", None) is not None:
        # Lazy: repro.resilience sits above repro.hooks in the layering.
        from repro.resilience.breaker import BREAKER_HOOK

        hooks.append(BREAKER_HOOK)
    if getattr(context, "autotune", None) is not None or _is_adaptive(context):
        # Lazy: repro.plan sits above repro.hooks in the layering.
        from repro.plan.autotune import AutotuneHook

        hooks.append(AutotuneHook())
    hooks.extend(getattr(context, "hooks", ()))
    return HookPipeline(hooks)


def _is_adaptive(context: "ExecutionContext") -> bool:
    """Whether the context's backend is a planning backend (``"auto"``)."""
    from repro.backends.base import BackendError, get_backend

    try:
        impl = get_backend(context.backend)
    except BackendError:
        return False  # resolve_context will raise the canonical error
    return getattr(impl, "select_backend", None) is not None


def emit_event(
    context: "ExecutionContext",
    *,
    kind: str,
    api: str,
    detail: str,
    backend: str | None = None,
    attempt: int = 0,
    device_index: int | None = None,
    launch_ordinal: int | None = None,
) -> None:
    """Emit one :class:`~repro.runtime.trace.ResilienceEvent` through the
    context's ``on_event`` channel.

    This is the single seam the resilience layer (fault plans, retry and
    fallback policies, ABFT verification, watchdogs, the multi-device
    partitioner) reports occurrences through; ``TraceHook`` forwards the
    events to the context's :class:`~repro.runtime.trace.Trace`, exactly
    where ``trace.record_event`` calls used to put them.  Free when no
    hook listens — the event object is never constructed.

    ``backend`` defaults to the context's backend; recovery paths that
    attempt a *different* backend (fallback chains) pass it explicitly.
    """
    pipeline = context.pipeline
    if not pipeline._on_event:
        return
    from repro.runtime.trace import ResilienceEvent

    pipeline.emit(
        context,
        ResilienceEvent(
            kind=kind,
            api=api,
            backend=backend if backend is not None else context.backend,
            detail=detail,
            attempt=attempt,
            device_index=device_index,
            launch_ordinal=launch_ordinal,
        ),
    )
