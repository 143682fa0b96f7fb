"""LaunchGraph: the explicit intermediate form of loop-shaped dispatch.

Every loop-shaped entry point in :mod:`repro.runtime` — closure
launches, batch items, split-k partials, multi-device row bands — lowers
its work onto a :class:`LaunchGraph`: a tuple of independent
:class:`LaunchStep`\\ s, built by :class:`GraphBuilder` and run by a
:class:`~repro.sched.executor.Scheduler`.  It is the paper's host
programming model (Figures 6 and 7): the host issues whole-matrix mmo
launches over its own arrays and does the work between them itself.  No
launch reads another launch's output.  Each step holds its operands —
the caller's arrays or NumPy views of them — and what combines the
outputs (split-k's ⊕-fold, the row-band gather, the closure loop's
convergence check) is the entry point's, run in launch order after the
scheduler returns (:func:`~repro.sched.builders.fold_outputs`,
:func:`~repro.sched.builders.gather_rows`).

Two properties are load-bearing for bit-identical parallel execution:

- **Combine in launch order.**  ⊕ is associative and commutative on
  every SIMD² ring, but floating-point ⊕ is not: outputs come back in
  launch order and the entry point folds them strictly left to right or
  writes them into fixed row windows, so the combined result never
  depends on which launch finished first.
- **Build-time fault ordinals.**  :meth:`GraphBuilder.launch` reserves
  each launch's :class:`~repro.resilience.faults.FaultPlan` ordinal at
  *build* time, in launch order (degenerate empty-output launches claim
  none, matching direct dispatch).  A threaded executor therefore
  injects exactly the faults a serial run would — the schedule never
  depends on thread interleaving.

Graphs are immutable once built; rebuilding (a repartition after a
device failure, the next closure launch) is a fresh
:class:`GraphBuilder` pass, which is what makes resilience a graph
*rewrite* rather than bespoke control flow.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.isa.opcodes import MmoOpcode
from repro.runtime.api import RuntimeError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.artifact import CompiledMmo
    from repro.hw.device import Simd2Device
    from repro.runtime.context import ExecutionContext

__all__ = [
    "GraphBuilder",
    "GraphError",
    "LaunchGraph",
    "LaunchStep",
]


class GraphError(RuntimeError_):
    """A malformed scheduler configuration (``max_workers <= 0``)."""


@dataclasses.dataclass(frozen=True, eq=False)
class LaunchStep:
    """One mmo launch: replay a compiled artifact, or compile at dispatch.

    ``a``, ``b`` and ``c`` are the launch's operands: the entry point's
    arrays or views of them (a split-k partition's columns, a band's
    rows), never another launch's output.  ``compiled is None`` compiles
    at dispatch (``mmo_tiled`` under a recovery policy, empty outputs,
    and batch items whose shapes disagree); otherwise
    :func:`~repro.runtime.kernels.execute_compiled` replays the artifact
    with ``cache_hit`` recorded on the launch.  ``fault_ordinal`` is the
    launch's build-time-reserved fault-plan ordinal (``None`` when no
    plan rides the context, or for degenerate empty-output launches).
    A launch never validates ring inputs: the entry point that built the
    graph did that once, for the whole call.

    A launch carries no recovery policy: the executor's one recovery
    driver reads it from the context the graph runs under
    (``ExecutionContext.recovery``).  ``wrap_hw_errors`` converts
    emulator :class:`~repro.hw.errors.HardwareError`\\ s into
    :class:`~repro.resilience.faults.DeviceFailure` carrying
    ``device_index`` so the caller can repartition.
    """

    api: str
    opcode: MmoOpcode
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None
    compiled: "CompiledMmo | None" = None
    cache_hit: bool | None = None
    fault_ordinal: int | None = None
    device: "Simd2Device | None" = None
    device_index: int | None = None
    wrap_hw_errors: bool = False
    label: str = ""


@dataclasses.dataclass(frozen=True, eq=False)
class LaunchGraph:
    """Independent launches in launch order, which is the ordinal order.

    A serial run walks ``nodes`` in order; an executor may run them in
    any order or concurrently, because no launch reads another's output.
    """

    nodes: tuple[LaunchStep, ...]


class GraphBuilder:
    """Accumulates launches into a :class:`LaunchGraph`, reserving ordinals.

    Only real launches reserve a fault-plan ordinal: a degenerate one
    (``m == 0`` or ``n == 0``) claims none, preserving the
    direct-dispatch rule that empty-output fast paths take no
    fault-schedule slot.
    """

    def __init__(self, context: "ExecutionContext", api: str):
        self._context = context
        self._api = api
        self._nodes: list[LaunchStep] = []

    def launch(
        self,
        opcode: MmoOpcode,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        compiled: "CompiledMmo | None" = None,
        cache_hit: bool | None = None,
        device: "Simd2Device | None" = None,
        device_index: int | None = None,
        wrap_hw_errors: bool = False,
        label: str = "",
    ) -> int:
        """Append one launch, reserving its fault ordinal now.

        Reservation order is append order, so the fault schedule is fully
        determined when :meth:`build` returns — before any executor runs.
        Returns the launch's index, which is also its position in
        :attr:`~repro.sched.executor.GraphResult.outputs`.
        """
        m = a.shape[0]
        n = b.shape[1] if b.ndim > 1 else 0
        fault_ordinal: int | None = None
        plan = self._context.fault_plan
        if plan is not None and m > 0 and n > 0:
            fault_ordinal = plan.reserve()
        self._nodes.append(
            LaunchStep(
                api=self._api,
                opcode=opcode,
                a=a,
                b=b,
                c=c,
                compiled=compiled,
                cache_hit=cache_hit,
                fault_ordinal=fault_ordinal,
                device=device,
                device_index=device_index,
                wrap_hw_errors=wrap_hw_errors,
                label=label,
            )
        )
        return len(self._nodes) - 1

    def build(self) -> LaunchGraph:
        return LaunchGraph(nodes=tuple(self._nodes))
