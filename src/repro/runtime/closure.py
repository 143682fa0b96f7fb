"""Semiring closure iteration — the host-side loop of the paper's Figure 7.

Graph problems solved with SIMD² iterate a whole-matrix mmo until a
fixpoint.  The paper discusses three iteration policies (Sections 4, 6.4):

- **All-pairs Bellman-Ford**: ``D ← D ⊕ (D ⊗ A)`` — one relaxation per
  step; needs up to ``|V|`` iterations (the graph diameter with a
  convergence check).
- **Leyzorek's algorithm**: ``D ← D ⊕ (D ⊗ D)`` — repeated squaring;
  needs at most ``⌈log₂|V|⌉`` iterations (``⌈log₂ diameter⌉`` with a
  convergence check).
- either of the above **with a convergence check**: a CUDA-core
  element-wise comparison after every mmo that terminates the loop as
  soon as the matrix stops changing.

:func:`closure` implements all three and reports iteration/mmo statistics,
which both the applications (for validation) and the timing model (for
Figures 11–12) consume.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.compile.lower import resolve_opcode
from repro.core.registry import get_semiring
from repro.core.semiring import Semiring, SemiringError
from repro.hooks.pipeline import emit_event
from repro.hw.device import Simd2Device
from repro.runtime.context import ExecutionContext, resolve_context
from repro.runtime.kernels import KernelStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.watchdog import ClosureDiagnostics, ClosureWatchdog

__all__ = ["ClosureResult", "closure", "matrices_equal", "max_iterations_for"]


def matrices_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Whole-matrix equality with ``NaN == NaN`` semantics.

    The convergence check must treat a NaN fixpoint as a fixpoint —
    plain ``np.array_equal`` has ``NaN != NaN`` and would spin a
    NaN-poisoned closure to its iteration cap.  Boolean matrices (or-and)
    take the plain path, where ``equal_nan`` is meaningless.
    """
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.floating):
        return bool(np.array_equal(x, y, equal_nan=True))
    return bool(np.array_equal(x, y))


@dataclasses.dataclass(frozen=True)
class ClosureResult:
    """Outcome of a closure iteration.

    ``diagnostics`` is ``None`` unless a watchdog observed the run (a
    healthy summary when the loop completed normally, or the structured
    reason — NaN poisoning, non-monotone progress, oscillation — when
    the watchdog terminated it early) or a budget brownout stopped it
    (``reason="budget_exhausted"``); in both early-stop cases
    ``converged`` is False.
    """

    matrix: np.ndarray
    iterations: int
    converged: bool
    method: str
    mmo_calls: int
    convergence_checks: int
    kernel_stats: tuple[KernelStats, ...]
    diagnostics: "ClosureDiagnostics | None" = None

    @property
    def total_mmo_instructions(self) -> int:
        return sum(stats.mmo_instructions for stats in self.kernel_stats)


def max_iterations_for(method: str, num_vertices: int) -> int:
    """Worst-case iteration bound per iteration policy (paper Section 6.4)."""
    if num_vertices <= 1:
        return 1
    if method == "bellman-ford":
        return num_vertices
    if method == "leyzorek":
        return max(1, math.ceil(math.log2(num_vertices)))
    raise SemiringError(f"unknown closure method {method!r}")


def _iteration_limit(
    method: str, shape: tuple[int, ...], convergence_check: bool,
    max_iterations: int | None,
) -> int:
    """Validate a closure's matrix shape and method; return its loop bound."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise SemiringError(f"closure needs a square matrix, got shape {shape}")
    if method not in ("leyzorek", "bellman-ford"):
        raise SemiringError(f"unknown closure method {method!r}")
    # With a convergence check one extra iteration *observes* the fixpoint.
    limit = (
        max_iterations if max_iterations is not None
        else max_iterations_for(method, shape[0]) + int(convergence_check)
    )
    if limit <= 0:
        raise SemiringError(f"max_iterations must be positive, got {limit}")
    return limit


def _iterate(
    ring: Semiring,
    adjacency: np.ndarray,
    step: Callable[
        [np.ndarray, np.ndarray, int], tuple[np.ndarray, list[KernelStats], bool]
    ],
    *,
    context: ExecutionContext,
    api: str,
    method: str,
    convergence_check: bool,
    max_iterations: int | None,
    watchdog: "bool | ClosureWatchdog",
    on_budget: str = "raise",
) -> ClosureResult:
    """The Figure-7 host loop behind :func:`closure` (and so
    :meth:`~repro.runtime.host.HostRuntime.run_closure`) and
    :func:`~repro.resilience.closure.resilient_closure`.

    The loop owns the bound, the watchdog, the convergence check and the
    budget brownout; ``step(current, operand, iteration)`` runs one
    iteration and returns the new iterate, its launches' kernel
    statistics, and whether the iterate equals ``current``.
    """
    # Lazy: repro.resilience imports the runtime package.
    from repro.resilience.budget import BudgetError
    from repro.resilience.watchdog import ClosureDiagnostics, ClosureWatchdog

    current = np.asarray(adjacency, dtype=ring.output_dtype)
    limit = _iteration_limit(
        method, current.shape, convergence_check, max_iterations
    )
    guard = None
    if watchdog:
        guard = watchdog if isinstance(watchdog, ClosureWatchdog) else ClosureWatchdog(ring)
    brownout: tuple[type[BaseException], ...] = (
        (BudgetError,) if on_budget == "brownout" else ()
    )

    base = current.copy()
    converged = False
    iterations = 0
    checks = 0
    diagnostics: "ClosureDiagnostics | None" = None
    all_stats: list[KernelStats] = []
    for _ in range(limit):
        operand = current if method == "leyzorek" else base
        try:
            updated, stats, same = step(current, operand, iterations)
        except brownout as exc:
            # Best-effort degradation: keep the last completed iterate as
            # the partial fixpoint and flag it, instead of discarding the
            # work already paid for.
            diagnostics = ClosureDiagnostics(
                healthy=False, reason="budget_exhausted",
                iteration=iterations, detail=str(exc),
            )
            emit_event(
                context, kind="brownout", api=api, detail=diagnostics.describe()
            )
            break
        all_stats.extend(stats)
        iterations += 1
        if guard is not None:
            diagnostics = guard.observe(updated, current, iterations)
        current = updated
        if diagnostics is not None:
            emit_event(
                context, kind="watchdog", api=api, detail=diagnostics.describe()
            )
            break
        if convergence_check:
            checks += 1
            if same:
                converged = True
                break

    if guard is not None and diagnostics is None:
        diagnostics = ClosureDiagnostics(
            healthy=True, reason=None, iteration=iterations,
            detail="no poisoning, regression, or oscillation observed",
        )
    return ClosureResult(
        matrix=current,
        iterations=iterations,
        converged=converged,
        method=method,
        mmo_calls=len(all_stats),
        convergence_checks=checks,
        kernel_stats=tuple(all_stats),
        diagnostics=diagnostics,
    )


def closure(
    ring: Semiring | str,
    adjacency: np.ndarray,
    *,
    method: str = "leyzorek",
    convergence_check: bool = True,
    max_iterations: int | None = None,
    backend: str | None = None,
    device: Simd2Device | None = None,
    context: ExecutionContext | None = None,
    watchdog: "bool | ClosureWatchdog" = False,
    validate_inputs: bool = False,
    bands: int = 1,
    on_budget: str = "raise",
) -> ClosureResult:
    """Iterate ``D ← D ⊕ (D ⊗ X)`` to a fixpoint under ``ring``.

    Parameters
    ----------
    ring:
        The semiring (e.g. ``"min-plus"`` for shortest paths).
    adjacency:
        The initial matrix ``D₀`` — typically the adjacency matrix with
        the problem's "self" value on the diagonal (0 for min-plus).
        Must be square.
    method:
        ``"leyzorek"`` (squaring, ``X = D``) or ``"bellman-ford"``
        (relaxation, ``X = D₀``).
    convergence_check:
        Stop as soon as an iteration leaves the matrix unchanged.  Costs
        one element-wise comparison per iteration (a pure CUDA-core
        kernel in the paper), which the result records.
    max_iterations:
        Iteration cap; defaults to the method's worst case for the given
        vertex count.
    backend / device / context:
        Execution configuration, resolved once up front (so an unknown
        backend fails before any iteration) and forwarded to
        :func:`~repro.runtime.kernels.mmo_tiled`; ``backend=None`` defers
        to the ambient :func:`~repro.runtime.context.default_context`.
    watchdog:
        ``True`` (or a configured
        :class:`~repro.resilience.watchdog.ClosureWatchdog`) observes
        every iterate for NaN poisoning, non-monotone progress on
        idempotent rings, and oscillation; on detection the loop
        terminates with the structured diagnosis on
        ``ClosureResult.diagnostics`` (and a ``watchdog`` trace event)
        instead of burning the iteration cap.
    validate_inputs:
        Closures legitimately iterate non-finite state — ``±inf`` "no
        edge" entries are data, and a NaN fixpoint must still converge —
        so per-iteration ring-input validation is **off** by default
        (the watchdog is the in-loop poison detector).  Pass ``True`` to
        reject a NaN / oppositely-signed-inf *initial* adjacency on the
        first launch before iterating.
    bands:
        Partition each iteration's output rows into this many
        tile-aligned bands — independent launch nodes in the iteration's
        :class:`~repro.sched.graph.LaunchGraph`, which a thread-pool
        scheduler on the context runs concurrently.  Results are
        bit-identical for any band count (bands write disjoint rows).
        The default ``1`` keeps one whole-matrix launch per iteration.
    on_budget:
        What to do when the context's
        :class:`~repro.resilience.budget.ExecutionBudget` trips mid-run.
        ``"raise"`` (the default) propagates the typed
        :class:`~repro.resilience.budget.DeadlineExceeded` /
        :class:`~repro.resilience.budget.BudgetExhausted`.
        ``"brownout"`` degrades instead: the loop stops at the last
        completed iterate and returns it as a best-effort partial
        fixpoint, flagged via ``ClosureResult.diagnostics``
        (``healthy=False``, ``reason="budget_exhausted"``) and a
        ``brownout`` trace event — ``converged`` stays ``False`` so
        callers cannot mistake the brownout for a fixpoint.

    Returns
    -------
    ClosureResult
        Final matrix plus iteration and instruction statistics.
    """
    ring = get_semiring(ring)
    ctx = resolve_context(context, backend=backend, device=device)
    if bands <= 0:
        raise SemiringError(f"bands must be positive, got {bands}")
    if on_budget not in ("raise", "brownout"):
        raise SemiringError(
            f"on_budget must be 'raise' or 'brownout', got {on_budget!r}"
        )
    # Each iteration is a LaunchGraph (band launches + the NaN-safe
    # check node); the ArtifactPool outlives it, so a cold cache shows
    # one compile miss, then hits.  Lazy: repro.sched runs our loops.
    from repro.sched.builders import ArtifactPool, closure_step_graph
    from repro.sched.executor import resolve_scheduler

    opcode = resolve_opcode(ring)
    pool = ArtifactPool(ctx, "closure")
    scheduler = resolve_scheduler(ctx)

    def step(
        current: np.ndarray, operand: np.ndarray, iteration: int
    ) -> tuple[np.ndarray, list[KernelStats], bool]:
        # Only the first launch sees the caller's validate_inputs choice;
        # replays iterate whatever the ring produced (NaN fixpoints and
        # injected faults included — the watchdog owns in-loop detection).
        graph, out_ref, check_ref, launch_refs = closure_step_graph(
            ctx, pool, opcode, current, operand,
            bands=bands, convergence_check=convergence_check,
            validate_inputs=validate_inputs and iteration == 0,
        )
        result = scheduler.run(graph, context=ctx)
        return (
            np.asarray(result[out_ref]),
            [result.stats_of(ref) for ref in launch_refs],
            check_ref is not None and bool(result[check_ref]),
        )

    return _iterate(
        ring, adjacency, step,
        context=ctx, api="closure", method=method,
        convergence_check=convergence_check, max_iterations=max_iterations,
        watchdog=watchdog, on_budget=on_budget,
    )
