"""Lifecycle hook pipeline for the SIMD² runtime.

One seam for every cross-cutting dispatch concern: hooks registered at
``pre_compile`` / ``post_compile`` / ``pre_execute`` / ``post_execute``
plus an ``on_event`` channel, assembled per
:class:`~repro.runtime.context.ExecutionContext` and invoked by the
runtime entry points instead of per-entry-point hand-threading.  See
:mod:`repro.hooks.pipeline` for the contract and
:mod:`repro.hooks.builtin` for the trace/fault/cache-stats hooks.
"""

from repro.hooks.builtin import (
    CacheStatsHook,
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
    "CacheStatsHook",
    "EMPTY_PIPELINE",
    "FaultHook",
    "Hook",
    "HookPipeline",
    "Launch",
    "TraceHook",
    "build_pipeline",
    "emit_event",
]
