"""``backend="auto"``: the planning stage registered as a backend.

Registering the planner under a backend name is what lets every entry
point adopt adaptive dispatch without signature changes: the dispatch
seam (:func:`repro.runtime.kernels.mmo_tiled` /
:func:`~repro.runtime.kernels.execute_compiled`) recognises a backend
that exposes :meth:`AutoBackend.select_backend`, asks it for the launch's
:class:`~repro.plan.planner.DispatchPlan`, rewrites the context to the
chosen *concrete* backend and dispatches there.  Consequences worth
spelling out:

- results are **bit-identical** to running the chosen static backend
  directly — the compiled artifact is backend-agnostic and the chosen
  backend's ``execute`` runs unchanged;
- trace ``LaunchRecord``\\ s name the concrete backend that ran (the
  decision itself is surfaced as a
  :class:`~repro.runtime.trace.PlanRecord` via the ``on_plan`` channel);
- loop entry points that replay a compiled artifact re-select *per
  iteration*, so closure loops re-plan as the iterate's density drifts
  across the predicted crossover.

``execute`` also works when called directly (it selects, then delegates)
for callers that bypass the dispatch seam.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.backends.base import BackendCapabilities, get_backend, register_backend
from repro.sparse.density import estimate_density

from repro.plan.autotune import default_autotune_table
from repro.plan.planner import DispatchPlan, Planner

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.compile.artifact import CompiledMmo
    from repro.isa.opcodes import MmoOpcode
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats

__all__ = ["AutoBackend"]


class AutoBackend:
    """Plan, then delegate: the registry face of :class:`Planner`.

    Capabilities are permissive — per-launch capability filtering is the
    planner's job, and a ring no concrete backend supports raises a
    :class:`~repro.plan.planner.PlanError` naming the gap instead of a
    blanket rejection.
    """

    name = "auto"
    # Conservatively not thread_safe: selection may route any launch to
    # the emulate backend's shared default device.
    capabilities = BackendCapabilities(thread_safe=False)

    def select_backend(
        self,
        opcode: "MmoOpcode",
        a: "np.ndarray",
        b: "np.ndarray",
        c: "np.ndarray | None",
        *,
        context: "ExecutionContext",
    ) -> "tuple[str, DispatchPlan]":
        """The concrete backend for these operands, plus the full plan.

        When the context carries a
        :class:`~repro.resilience.breaker.BreakerBoard`, candidates
        whose breaker is open are filtered out of the ranking *after*
        the planner's cache (health is per dispatch, not per plan) and
        recorded on ``plan.breaker_skipped``.  Half-open backends are
        admitted — the dispatch is their recovery probe, claimed via
        :meth:`~repro.resilience.breaker.BreakerBoard.try_acquire`.  If
        every candidate is blocked the plan passes through unfiltered
        (fail open): a certain skip-everything error helps nobody, and
        the launch doubles as the probe that re-admits the healthiest
        candidate.
        """
        semiring = opcode.semiring
        m, k = a.shape
        n = b.shape[1]
        table = (
            context.autotune
            if context.autotune is not None
            else default_autotune_table()
        )
        plan = Planner(table).plan(
            opcode, m, n, k,
            has_accumulator=c is not None,
            density_a=estimate_density(a, semiring),
            density_b=estimate_density(b, semiring),
        )
        board = getattr(context, "breakers", None)
        if board is not None:
            blocked = tuple(
                cand.backend
                for cand in plan.candidates
                if board.blocked(cand.backend)
            )
            if blocked and len(blocked) < len(plan.candidates):
                plan = dataclasses.replace(
                    plan,
                    candidates=tuple(
                        cand
                        for cand in plan.candidates
                        if cand.backend not in blocked
                    ),
                    breaker_skipped=blocked,
                )
            board.try_acquire(plan.best.backend)
        return plan.best.backend, plan

    def execute(
        self,
        compiled: "CompiledMmo",
        a: "np.ndarray",
        b: "np.ndarray",
        c: "np.ndarray | None",
        *,
        context: "ExecutionContext",
    ) -> "tuple[np.ndarray, KernelStats]":
        # Direct-execute fallback for callers that bypass the dispatch
        # seam: select here, then run the chosen backend unchanged.  The
        # rewritten context carries a resolved autotune table so even
        # this path feeds observations back into the planner.
        chosen, _ = self.select_backend(compiled.opcode, a, b, c, context=context)
        impl = get_backend(chosen)
        table = context.autotune
        if table is None:
            table = default_autotune_table()
        return impl.execute(
            compiled, a, b, c,
            context=context.replace(backend=chosen, autotune=table),
        )


register_backend(AutoBackend())
