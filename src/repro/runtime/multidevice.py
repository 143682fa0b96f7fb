"""Multi-device work partitioning for whole-matrix mmos.

The paper notes that MXU programming models "perform work partitioning and
tiling to execute a larger GEMM with multiple MXUs in a system or across
systems".  This module implements the across-devices level for SIMD²:
:func:`mmo_tiled_multi_device` splits the output rows of one mmo across a
list of emulated devices (each device gets a contiguous row band, B is
broadcast), runs each band on its device, and reassembles the result —
with per-device statistics so tests can assert the partition is balanced
and that the union of executed work equals the single-device run exactly.

Resilience (all opt-in, defaults preserve the plain fail-fast behaviour):

- the context's ``recovery`` policy (:class:`~repro.resilience.policy
  .Recovery`) checks and retries every band through the scheduler's one
  recovery driver, as on every other entry point; bands never fall
  back, so a recovery carrying a ``fallback`` chain is rejected;
- ``on_device_failure="repartition"`` survives hard device failures
  (injected via the context's :class:`~repro.resilience.faults.FaultPlan`
  or surfaced as emulator :class:`~repro.hw.errors.HardwareError`\\ s): the
  failed device is blacklisted and the *entire row space* is repartitioned
  across the survivors, so the reassembled result is bit-identical to a
  fault-free run;
- ``blacklist`` is a caller-owned mutable set of failed device indices —
  pass the same set across calls (e.g. every iteration of a closure) and
  a dead device stays dead instead of being rediscovered each launch.

Every failure, retry, and repartition lands as a
:class:`~repro.runtime.trace.ResilienceEvent` on the context's trace.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.core.tiles import TILE, ceil_div
from repro.hooks.pipeline import emit_event
from repro.hw.device import Simd2Device
from repro.isa.opcodes import MmoOpcode
from repro.runtime.api import RuntimeError_
from repro.runtime.context import ExecutionContext, resolve_context
from repro.runtime.kernels import (
    KernelStats,
    _validate_operands,
    _validate_ring_inputs,
)

__all__ = ["DeviceShare", "mmo_tiled_multi_device"]


@dataclasses.dataclass(frozen=True)
class DeviceShare:
    """One device's slice of the partitioned mmo."""

    device_index: int
    row_start: int
    row_stop: int
    stats: KernelStats

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start


def mmo_tiled_multi_device(
    ring: Semiring | str | MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    devices: list[Simd2Device],
    backend: str | None = None,
    context: ExecutionContext | None = None,
    on_device_failure: str = "abort",
    blacklist: set[int] | None = None,
    validate_inputs: bool = True,
) -> tuple[np.ndarray, list[DeviceShare]]:
    """``D = C ⊕ (A ⊗ B)`` partitioned row-wise across devices.

    Rows are split into floor-balanced tile-aligned bands (multiples of
    16, via :func:`~repro.backends.tiling.partition_bands`) so no tile
    straddles a device boundary; some devices may receive nothing when
    there are fewer row tiles than devices.

    This is a device-centric API, so the default backend is ``"emulate"``
    unless an explicit ``backend`` or ``context`` overrides it; each band
    runs under the resolved context with its own device swapped in.  The
    bands are the launches of one :class:`~repro.sched.graph.LaunchGraph`
    run by the context's scheduler, and this call gathers their outputs
    into fixed row windows after it returns — so a cancellation or
    deadline that trips after the last band started stops nothing.

    Parameters (resilience, all opt-in)
    -----------------------------------
    on_device_failure:
        ``"abort"`` (default) propagates the failure; ``"repartition"``
        blacklists the failed device and redistributes *all* rows across
        the surviving devices, raising only when none survive.
    blacklist:
        Caller-owned set of failed device indices, updated in place —
        share it across calls so dead devices stay blacklisted.
    validate_inputs:
        Reject value-poisoned operands (NaN, oppositely-signed inf) once
        over the full matrices up front, exactly as
        :func:`~repro.runtime.kernels.mmo_tiled` does; the per-band
        launches skip re-validation.  ``False`` opts out for
        deliberately poisoned loops.

    Band checks and retries come from the context's ``recovery``; a band
    whose retries are spent re-raises its last failure.  A recovery with
    a ``fallback`` chain raises :class:`~repro.resilience.faults
    .ResilienceError` before any band runs.
    """
    if on_device_failure not in ("abort", "repartition"):
        raise RuntimeError_(
            f"on_device_failure must be 'abort' or 'repartition', "
            f"got {on_device_failure!r}"
        )
    if not devices:
        raise RuntimeError_("need at least one device")
    if backend is None and context is None:
        backend = "emulate"
    ctx = resolve_context(context, backend=backend)
    # Lazy: repro.resilience sits above; repro.sched orchestrates this loop.
    from repro.resilience.faults import DeviceFailure, ResilienceError
    from repro.sched.builders import gather_rows, multidevice_graph
    from repro.sched.executor import resolve_scheduler

    if ctx.recovery is not None and ctx.recovery.fallback is not None:
        raise ResilienceError(
            "mmo_tiled_multi_device: devices= bands recover by retry and "
            "repartition, never by fallback=; run the bands under a "
            "recovery without a fallback chain"
        )
    if isinstance(ring, MmoOpcode):
        semiring = ring.semiring
    else:
        semiring = get_semiring(ring)
    # Shared shape validation: a bad accumulator raises the same
    # named-operand OperandValidationError (also a ValueError) here as on
    # every other entry point, instead of a bare RuntimeError_.
    a, b, c, m, n, _ = _validate_operands(a, b, c)
    if validate_inputs:
        # One poison scan over the full operands; bands skip re-checking.
        _validate_ring_inputs(semiring, a, b, c)

    blacklist = blacklist if blacklist is not None else set()
    repartition = on_device_failure == "repartition"

    while True:
        roster = [
            (index, device)
            for index, device in enumerate(devices)
            if index not in blacklist
        ]
        if not roster:
            raise RuntimeError_(
                f"no surviving devices: all {len(devices)} blacklisted "
                f"({sorted(blacklist)})"
            )
        # One launch per device band, carrying its device; a thread-pool
        # scheduler runs the bands
        # concurrently, and the gather below writes them into fixed row
        # windows, bit-identically.  A device the fault plan hard-fails
        # raises at *build* time, in band order, so earlier bands keep
        # their ordinals across the repartition rebuild.
        try:
            graph, bands = multidevice_graph(
                roster, semiring, a, b, c, ctx, wrap_hw_errors=repartition
            )
            result = resolve_scheduler(ctx).run(graph, context=ctx)
        except DeviceFailure as exc:
            if not repartition:
                raise
            blacklist.add(exc.device_index)
            emit_event(
                ctx, kind="device_failure", api="mmo_tiled_multi_device",
                device_index=exc.device_index, detail=str(exc),
            )
            survivors = len(devices) - len(blacklist)
            emit_event(
                ctx, kind="repartition", api="mmo_tiled_multi_device",
                detail=f"redistributing {ceil_div(m, TILE)} row tiles "
                       f"across {survivors} surviving device(s) "
                       f"(blacklist {sorted(blacklist)})",
            )
            continue
        shares = [
            DeviceShare(index, row_start, row_stop, stats)
            for (index, row_start, row_stop), stats in zip(bands, result.stats)
        ]
        windows = [(row_start, row_stop) for _, row_start, row_stop in bands]
        out = gather_rows(
            (m, n), semiring.output_dtype, windows, result.outputs
        )
        return out, shares
