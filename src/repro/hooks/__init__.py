"""Lifecycle hook pipeline for the SIMD² runtime.

One seam for every cross-cutting dispatch concern: hooks registered at
``post_compile`` / ``pre_execute`` / ``post_execute`` plus the
``on_event`` and ``on_plan`` channels, assembled per
:class:`~repro.runtime.context.ExecutionContext` and invoked by the
runtime entry points instead of per-entry-point hand-threading.  See
:mod:`repro.hooks.pipeline` for the contract and
:mod:`repro.hooks.builtin` for the trace and fault hooks.
"""

from repro.hooks.builtin import (
    FaultHook,
    TraceHook,
)
from repro.hooks.pipeline import (
    EMPTY_PIPELINE,
    Hook,
    HookPipeline,
    Launch,
    build_pipeline,
    emit_event,
)

__all__ = [
    "EMPTY_PIPELINE",
    "FaultHook",
    "Hook",
    "HookPipeline",
    "Launch",
    "TraceHook",
    "build_pipeline",
    "emit_event",
]
