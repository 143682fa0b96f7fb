"""Semiring closure iteration — the host-side loop of the paper's Figure 7.

Graph problems solved with SIMD² iterate mmo launches until a fixpoint.
The paper discusses three iteration policies (Sections 4, 6.4); this
module adds the blocked schedule of its APSP baseline:

- **All-pairs Bellman-Ford**: ``D ← D ⊕ (D ⊗ A)`` — one relaxation per
  step; needs up to ``|V|`` iterations (the graph diameter with a
  convergence check).
- **Leyzorek's algorithm**: ``D ← D ⊕ (D ⊗ D)`` — repeated squaring;
  needs at most ``⌈log₂|V|⌉`` iterations (``⌈log₂ diameter⌉`` with a
  convergence check).
- either of the above **with a convergence check**: a CUDA-core
  element-wise comparison after every mmo that terminates the loop as
  soon as the matrix stops changing.
- **Blocked** (ECL-APSP's tiled Floyd–Warshall, idempotent rings only):
  one round per :data:`BLOCK`-vertex diagonal block ``K`` closes
  ``D[K,K]`` by squaring, then applies the rank-``BLOCK`` update
  ``D ← D ⊕ (D[:,K] ⊗ D[K,K]* ⊗ D[K,:])`` as two launches — about one
  ``n³`` pass in total.

:func:`closure` implements all of them and reports iteration/mmo
statistics, which both the applications (for validation) and the timing
model (for Figures 11–12) consume.
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

__all__ = [
    "BLOCK",
    "ClosureResult",
    "closure",
    "matrices_equal",
    "max_iterations_for",
]

#: Vertices per diagonal block of ``method="blocked"`` (four 16-wide tiles).
BLOCK = 64

#: One ``D = C ⊕ (A ⊗ B)`` launch, as a closure driver supplies it:
#: ``launch(a, b, c, check, first_round)`` returns ``D``, the statistics of
#: the kernel launches that produced it, and — when ``check`` — whether
#: ``D`` equals ``C``.  ``first_round`` marks the launches of the first
#: iteration (the ones ``validate_inputs`` applies to).
Launch = Callable[
    [np.ndarray, np.ndarray, np.ndarray, bool, bool],
    tuple[np.ndarray, list[KernelStats], bool],
]


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

    ``iterations`` counts loop steps (rounds for ``method="blocked"``),
    ``mmo_calls == len(kernel_stats)`` counts launches, and
    ``convergence_checks`` counts the checks that ran.  ``diagnostics``
    is ``None`` unless a watchdog observed the run (a healthy summary
    when the loop completed normally, or the structured reason — NaN
    poisoning, non-monotone progress, oscillation — when the watchdog
    terminated it early) or a budget brownout stopped it
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
    """Worst-case iteration bound per iteration policy (paper Section 6.4).

    Bellman-Ford needs ``|V|`` relaxations and Leyzorek ``⌈log₂|V|⌉``
    squarings; blocked closure runs ``⌈|V| / BLOCK⌉`` rounds, each of
    which squares its diagonal block up to Leyzorek's bound for the
    block.  A convergence check adds one observing iteration to the
    first two and one squaring per block to the third.
    """
    if num_vertices <= 1:
        return 1
    if method == "bellman-ford":
        return num_vertices
    if method == "leyzorek":
        return max(1, math.ceil(math.log2(num_vertices)))
    if method == "blocked":
        return math.ceil(num_vertices / BLOCK)
    raise SemiringError(f"unknown closure method {method!r}")


def _iteration_limit(
    method: str, shape: tuple[int, ...], convergence_check: bool,
    max_iterations: int | None,
) -> int:
    """Validate a closure's matrix shape and method; return its loop bound.

    ``max_iterations`` replaces the :func:`max_iterations_for` bound,
    which gains one observing iteration for Leyzorek and Bellman-Ford
    when the convergence check is on.  Blocked closure never runs more
    than its ``⌈n / BLOCK⌉`` rounds, whatever the cap.
    """
    if len(shape) != 2 or shape[0] != shape[1]:
        raise SemiringError(f"closure needs a square matrix, got shape {shape}")
    if method not in ("leyzorek", "bellman-ford", "blocked"):
        raise SemiringError(f"unknown closure method {method!r}")
    bound = max_iterations_for(method, shape[0])
    if method == "blocked":
        limit = bound if max_iterations is None else min(max_iterations, bound)
    else:
        # With a convergence check one extra iteration *observes* the fixpoint.
        limit = (
            max_iterations if max_iterations is not None
            else bound + int(convergence_check)
        )
    if limit <= 0:
        raise SemiringError(f"max_iterations must be positive, got {limit}")
    return limit


def _iterate(
    ring: Semiring,
    adjacency: np.ndarray,
    launch: Launch,
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

    The loop owns the schedule of every method — which ``A``, ``B`` and
    ``C`` each launch reads, the bound, the watchdog, the convergence
    check and the budget brownout.  A driver supplies only ``launch``,
    one ``C ⊕ (A ⊗ B)`` on its own substrate (see :data:`Launch`).
    """
    # Lazy: repro.resilience imports the runtime package.
    from repro.resilience.budget import BudgetError
    from repro.resilience.watchdog import ClosureDiagnostics, ClosureWatchdog

    current = np.asarray(adjacency, dtype=ring.output_dtype)
    limit = _iteration_limit(method, current.shape, convergence_check, max_iterations)
    if method == "blocked" and not ring.is_idempotent():
        raise SemiringError(
            f"blocked closure requires an idempotent ⊕; semiring {ring.name!r} "
            "is not supported"
        )
    n = current.shape[0]
    guard = None
    if watchdog:
        guard = watchdog if isinstance(watchdog, ClosureWatchdog) else ClosureWatchdog(ring)
    brownout: tuple[type[BaseException], ...] = (
        (BudgetError,) if on_budget == "brownout" else ()
    )

    base = current.copy()
    all_stats: list[KernelStats] = []
    checks = 0
    blocks_closed = True

    def run(
        a: np.ndarray, b: np.ndarray, c: np.ndarray, check: bool, first: bool
    ) -> tuple[np.ndarray, bool]:
        nonlocal checks
        d, stats, same = launch(a, b, c, check, first)
        all_stats.extend(stats)
        checks += check
        return d, same

    def step(d: np.ndarray, index: int) -> tuple[np.ndarray, bool]:
        """One iteration; returns the iterate and whether it is the closure."""
        nonlocal blocks_closed
        first = index == 0
        if method == "leyzorek":
            return run(d, d, d, convergence_check, first)
        if method == "bellman-ford":
            return run(d, base, d, convergence_check, first)
        # A blocked round over K = [lo, hi): square D[K,K] to its fixpoint,
        # form the row panel R = D[K,:] ⊕ (D[K,K]* ⊗ D[K,:]), then apply
        # the rank-|K| update D ⊕ (D[:,K] ⊗ R).
        lo, hi = index * BLOCK, min(n, (index + 1) * BLOCK)
        block, closed = d[lo:hi, lo:hi], False
        for _ in range(max_iterations_for("leyzorek", hi - lo) + int(convergence_check)):
            block, closed = run(block, block, block, convergence_check, first)
            if closed:
                break
        blocks_closed = blocks_closed and closed
        if hi - lo == n:  # one block: the closed block is the matrix
            return block, closed
        rows = d[lo:hi]
        panel, _ = run(block, rows, rows, False, first)
        updated, _ = run(d[:, lo:hi], panel, d, False, first)
        return updated, blocks_closed and hi == n

    converged = False
    iterations = 0
    diagnostics: "ClosureDiagnostics | None" = None
    for _ in range(limit):
        try:
            updated, fixpoint = step(current, iterations)
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
        iterations += 1
        if guard is not None:
            diagnostics = guard.observe(updated, current, iterations)
        current = updated
        if diagnostics is not None:
            emit_event(
                context, kind="watchdog", api=api, detail=diagnostics.describe()
            )
            break
        if fixpoint:
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
        ``"leyzorek"`` (squaring, ``X = D``), ``"bellman-ford"``
        (relaxation, ``X = D₀``) or ``"blocked"`` (see below).
    convergence_check:
        Stop as soon as an iteration leaves the matrix unchanged.  Costs
        one element-wise comparison per checked launch (a pure CUDA-core
        kernel in the paper), which the result records.
    max_iterations:
        Iteration cap (rounds for ``"blocked"``); defaults to the
        method's worst case for the given vertex count
        (:func:`max_iterations_for`).
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
        launches of the first iteration before iterating.
    bands:
        Partition each launch's output rows into this many tile-aligned
        bands — independent launch nodes in the launch's
        :class:`~repro.sched.graph.LaunchGraph`, which a thread-pool
        scheduler on the context runs concurrently.  Results are
        bit-identical for any band count (bands write disjoint rows).
        The default ``1`` keeps one whole-matrix launch per step.
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

    Notes
    -----
    ``method="blocked"`` is the three-phase tiled Floyd–Warshall of the
    paper's APSP baseline, for the seven rings whose ``⊕`` is idempotent
    (plus-mul and plus-norm raise :class:`SemiringError` before any
    launch).  Round ``r`` takes the diagonal block
    ``K = [r·BLOCK, min(n, (r+1)·BLOCK))`` and

    1. closes ``D[K,K]`` by squaring it (``D[K,K] ⊕ D[K,K] ⊗ D[K,K]``);
    2. forms the row panel ``R = D[K,:] ⊕ (D[K,K]* ⊗ D[K,:])``, one
       ``(b×b)·(b×n)`` launch;
    3. applies ``D ← D ⊕ (D[:,K] ⊗ R)``, one ``(n×b)·(b×n)`` launch —

    about one ``n³`` pass in all, against ``⌈log₂ d⌉ + 1`` for Leyzorek.
    Its semantics:

    - **Counters.** ``iterations`` counts rounds, ``⌈n / BLOCK⌉`` of
      them; ``mmo_calls == len(kernel_stats)`` counts launches, including
      those of a round that a brownout cut short; ``convergence_checks``
      counts the checks that ran, all of them in step 1.
    - **Convergence check on.** Each diagonal block is squared until a
      launch leaves it unchanged, at most ``⌈log₂ b⌉ + 1`` launches.
      ``converged`` is True only if every round's block reached its
      fixpoint; after the last round the matrix is then the closure, so
      no whole-matrix check runs.  A positive max-plus cycle shows up as
      a block that never closes (``converged=False``), like
      Floyd–Warshall's diagonal test.
    - **Convergence check off.** Each block takes ``⌈log₂ b⌉``
      squarings, and ``converged`` stays False, as for Leyzorek.
    - **Partial results.** After ``r`` rounds — stopped by
      ``max_iterations`` or by a budget brownout — the matrix equals
      Floyd–Warshall over the intermediates ``0 … min(n, r·BLOCK) − 1``.
    - **n ≤ BLOCK.** One round whose block is the whole matrix: exactly
      Leyzorek's launches and checks, and no panel launches.
    - **Input validation.** ``validate_inputs=True`` applies to every
      launch of round 0.  Its rank-``BLOCK`` update reads all of ``D₀``
      as its accumulator, so a NaN anywhere in ``D₀`` is rejected; an
      oppositely-signed infinity is an operand error only where round 0
      reads it as ``A`` or ``B``, in the first block's rows and columns.
    - **Precision.** When every path value is fp16-exact (as with the
      benchmark inputs' grid weights and ±inf "no edge"), every method is
      bit-identical to :func:`~repro.apps.floyd_warshall.floyd_warshall`.
      On max-mul and min-mul the products are not fp16-exact and each
      method re-quantises at different points, so every method differs
      from Floyd–Warshall in the low bits: the largest relative error
      stays within ``1e-2`` while path values stay in fp16's normal range
      (at least ``2⁻¹⁴``).
    """
    ring = get_semiring(ring)
    ctx = resolve_context(context, backend=backend, device=device)
    if bands <= 0:
        raise SemiringError(f"bands must be positive, got {bands}")
    if on_budget not in ("raise", "brownout"):
        raise SemiringError(
            f"on_budget must be 'raise' or 'brownout', got {on_budget!r}"
        )
    # Each launch is a LaunchGraph (band launches + the NaN-safe check
    # node); the ArtifactPool outlives it, so a cold cache shows one
    # compile miss per launch shape, then hits.  Lazy: repro.sched runs
    # our loops.
    from repro.sched.builders import ArtifactPool, closure_step_graph
    from repro.sched.executor import resolve_scheduler

    opcode = resolve_opcode(ring)
    pool = ArtifactPool(ctx, "closure")
    scheduler = resolve_scheduler(ctx)

    def launch(
        a: np.ndarray, b: np.ndarray, c: np.ndarray, check: bool, first_round: bool
    ) -> tuple[np.ndarray, list[KernelStats], bool]:
        # Only the first round sees the caller's validate_inputs choice;
        # later rounds iterate whatever the ring produced (NaN fixpoints
        # and injected faults included — the watchdog owns in-loop
        # detection).
        graph, out_ref, check_ref, launch_refs = closure_step_graph(
            ctx, pool, opcode, a, b, c,
            bands=bands, convergence_check=check,
            validate_inputs=validate_inputs and first_round,
        )
        result = scheduler.run(graph, context=ctx)
        return (
            np.asarray(result[out_ref]),
            [result.stats_of(ref) for ref in launch_refs],
            check_ref is not None and bool(result[check_ref]),
        )

    return _iterate(
        ring, adjacency, launch,
        context=ctx, api="closure", method=method,
        convergence_check=convergence_check, max_iterations=max_iterations,
        watchdog=watchdog, on_budget=on_budget,
    )
