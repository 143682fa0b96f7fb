"""Built-in lifecycle hooks: fault injection and trace recording.

Each hook is stateless (reads everything from the launch's context), so a
single shared instance serves every pipeline; :func:`~repro.hooks
.pipeline.build_pipeline` assembles them in the canonical order
fault → trace.  That order *is* load-bearing: fault corruption rewrites
``launch.result`` before the trace hook reads it, and an injected *drop*
raises in ``pre_execute`` before any record is appended — a dropped
launch leaves no ``LaunchRecord``.  Ring-input validation runs in the
entry point before the pipeline opens the launch, so a rejected launch
claims no fault-schedule slot and leaves no record.  To meter one
context's compile traffic, attach a
:class:`~repro.runtime.trace.Trace`: ``Trace.compiles[i].cache_hit``
and ``TraceSummary.compile_requests`` count its compile hits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hooks.pipeline import Hook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.artifact import CompiledMmo
    from repro.hooks.pipeline import Launch
    from repro.runtime.context import ExecutionContext
    from repro.runtime.trace import PlanRecord, ResilienceEvent

__all__ = [
    "FaultHook",
    "TraceHook",
    "FAULT_HOOK",
    "TRACE_HOOK",
]


class FaultHook(Hook):
    """The fault-injection seam (subsumes ``_fault_begin``/``_fault_corrupt``).

    ``pre_execute`` claims the next launch ordinal from the context's
    :class:`~repro.resilience.faults.FaultPlan` (raising
    :class:`~repro.resilience.faults.InjectedFault` on scheduled drops);
    ``post_execute`` applies any scheduled output corruption.  Degenerate
    launches never ran a kernel, so they claim no ordinal — fault
    schedules address real launches only.  A launch arriving with a
    pre-reserved ordinal (a :mod:`repro.sched` graph node, numbered at
    build time) keeps it: only drop admission happens here.
    """

    def pre_execute(self, launch: "Launch") -> None:
        plan = launch.context.fault_plan
        if plan is None or launch.degenerate:
            return
        if launch.fault_ordinal is None:
            launch.fault_ordinal = plan.reserve()
        plan.admit(launch.fault_ordinal, launch.context, launch.api)

    def post_execute(self, launch: "Launch") -> None:
        plan = launch.context.fault_plan
        if plan is None or launch.fault_ordinal is None:
            return
        launch.result = plan.corrupt_output(
            launch.fault_ordinal, launch.result, launch.context, launch.api
        )


class TraceHook(Hook):
    """Record launches and resilience events on the context's trace sink.

    Subsumes the old per-entry-point ``_record_launch`` helper (one
    :class:`~repro.runtime.trace.LaunchRecord` per completed launch, with
    cycle estimate, cache-hit flag and optimiser statistics) and the
    hand-called ``trace.record_event`` sites (events now arrive through
    the pipeline's ``on_event`` channel).  ``post_compile`` additionally
    appends one :class:`~repro.runtime.trace.CompileRecord` per compile
    request, surfacing the artifact's cached
    :class:`~repro.isa.verifier.VerificationReport` (verification stats
    ride the trace without the dispatch layer re-verifying anything).
    Runs last in the built-in order so it observes the post-corruption
    result and never records a launch an earlier hook aborted.
    """

    def post_compile(
        self,
        context: "ExecutionContext",
        api: str,
        compiled: "CompiledMmo",
        cache_hit: bool,
    ) -> None:
        trace = context.trace
        if trace is None:
            return
        from repro.runtime.trace import CompileRecord

        report = compiled.verification
        if report is None:
            record = CompileRecord(
                api=api,
                backend=context.backend,
                opcode=compiled.opcode.name,
                tiles=compiled.grid,
                cache_hit=cache_hit,
            )
        else:
            effects = report.effects
            record = CompileRecord(
                api=api,
                backend=context.backend,
                opcode=compiled.opcode.name,
                tiles=compiled.grid,
                cache_hit=cache_hit,
                verified=report.ok,
                verifier_warnings=len(report.warnings),
                dead_stores=len(report.dead_stores),
                registers_used=report.register_pressure,
                shared_memory_bytes=report.shared_memory_bytes,
                deterministic=None if effects is None else effects.deterministic,
            )
        trace.record_compile(record)

    def post_execute(self, launch: "Launch") -> None:
        trace = launch.context.trace
        if trace is None:
            return
        from repro.runtime.trace import LaunchRecord
        from repro.timing.cycles import kernel_cycle_estimate  # lazy: cycles imports kernels

        opcode = launch.opcode
        semiring = opcode.semiring
        stats = launch.stats
        cycles = kernel_cycle_estimate(stats, boolean=semiring.is_boolean()).total
        trace.record(
            LaunchRecord(
                api=launch.api,
                backend=launch.context.backend,
                ring=semiring.name,
                opcode=opcode.name,
                shape=(stats.m, stats.n, stats.k),
                tiles=(stats.tiles_m, stats.tiles_n, stats.tiles_k),
                wall_time_s=launch.wall_time_s,
                kernel_stats=stats,
                cycle_estimate=cycles,
                cache_hit=launch.cache_hit,
                optimizer_removed=launch.optimizer_removed,
            )
        )

    def on_event(self, context: "ExecutionContext", event: "ResilienceEvent") -> None:
        trace = context.trace
        if trace is not None:
            trace.record_event(event)

    def on_plan(self, context: "ExecutionContext", plan: "PlanRecord") -> None:
        trace = context.trace
        if trace is not None:
            trace.record_plan(plan)


#: Shared stateless instances used by the default pipeline assembly.
FAULT_HOOK = FaultHook()
TRACE_HOOK = TraceHook()
