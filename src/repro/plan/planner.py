"""The planner: rank capable backends for one launch, cold or refined.

Given ``(opcode, shape, ring, operand density)`` the :class:`Planner`
produces a :class:`DispatchPlan` — every *capable* registered backend
(capability filtering replaces the sparse backend's old execute-time
probing), ranked by expected wall time.  Cold, the expectation is the
substrate model's price for that backend and ring, fitted to measured
launches (:mod:`repro.timing.backend_cost`); once the
:class:`~repro.plan.autotune.AutotuneTable` holds an observation for a
backend's bucket, the observed time wins.

One deliberate wrinkle: **bounded exploration**.  The calibrated model's
residual error near the sparse/dense crossover is about
:data:`MODEL_ERROR_BAND`; inside that band the model's ordering is a coin
toss, so once the ranked-best backend has an observation, the planner
promotes the cheapest still-*unobserved* candidate whose *model* price
ties the best's *model* price within the band both ways (model-vs-model:
the band describes the model's residual, so the comparison stays
meaningful even when the substrate runs systematically faster or slower
than the model's absolute scale).  ``plan.probe`` marks any launch handed
to an unmeasured backend while a measured alternative exists — whether by
promotion or because the model outranked a slow observation outright.
Each candidate is promoted at most once per bucket: after its launch both
sides carry real measurements and the ranking is purely empirical.

The symmetric case is the **re-probe**: when a backend the model prefers
*beyond* the band has lost on measurement, but its bucket holds fewer
than :data:`~repro.plan.autotune.REPROBE_OBSERVATIONS` samples, the loss
is not yet trusted — one scheduling burst can poison a fresh bucket's
best time, and pure best-observed exploitation would never re-measure the
victim.  Re-probe launches also carry ``plan.probe``; each one adds a
sample, so the suspicion self-extinguishes after a bounded number of
launches whether or not the model turns out to be right.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.backends.base import capable_backends, get_backend
from repro.compile.lower import resolve_opcode
from repro.runtime.api import RuntimeError_
from repro.timing.backend_cost import LaunchSpec, estimate

from repro.plan.autotune import (
    REPROBE_OBSERVATIONS,
    AutotuneTable,
    default_autotune_table,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.semiring import Semiring
    from repro.isa.opcodes import MmoOpcode

__all__ = [
    "DispatchPlan",
    "MODEL_ERROR_BAND",
    "PlanCandidate",
    "PlanError",
    "Planner",
    "crossover_density",
    "planner_order",
]

#: Multiplicative residual band of the fitted cost model near the
#: sparse/dense crossover: at every point of the fit's sweep, the backend
#: the model picks was measured within this factor of the fastest.  Model
#: margins inside this band are treated as ties worth one probe.
MODEL_ERROR_BAND = 1.35


class PlanError(RuntimeError_):
    """No capable backend, or an otherwise unplannable launch."""


@dataclasses.dataclass(frozen=True)
class PlanCandidate:
    """One backend's expected price for the launch.

    ``source`` is ``"observed"`` when the autotune table priced it,
    ``"model"`` when the cold cost model did.
    """

    backend: str
    cost_s: float
    source: str


@dataclasses.dataclass(frozen=True)
class DispatchPlan:
    """A ranked backend order for one concrete launch.

    ``candidates[0]`` is the choice; ``probe`` marks it as an exploration
    launch — the chosen backend is unmeasured (or measured so little that
    its loss contradicts a decisive model preference) while a measured
    alternative exists, so this launch buys a measurement.

    ``breaker_skipped`` names backends the dispatching context's circuit
    breakers removed from the ranking (always empty on the planner's own
    cached output — health filtering happens per dispatch, after the
    cache, so a sick backend never poisons the memoised plan).
    """

    opcode: str
    ring: str
    shape: tuple[int, int, int]
    density_a: float
    density_b: float
    candidates: tuple[PlanCandidate, ...]
    probe: bool = False
    breaker_skipped: tuple[str, ...] = ()

    @property
    def best(self) -> PlanCandidate:
        return self.candidates[0]

    @property
    def order(self) -> tuple[str, ...]:
        """Backend names in ranked order (what a fallback chain walks)."""
        return tuple(c.backend for c in self.candidates)

    @property
    def refined(self) -> bool:
        """Whether any candidate was priced from observations."""
        return any(c.source == "observed" for c in self.candidates)


def _is_planning_backend(name: str) -> bool:
    """Planning backends (``"auto"``) never appear in their own plans."""
    return getattr(get_backend(name), "select_backend", None) is not None


class Planner:
    """Rank capable backends: cost-model-seeded, observation-refined.

    ``table=None`` consults the process-wide
    :func:`~repro.plan.autotune.default_autotune_table` at plan time;
    pass a private table to isolate a workload's observations.
    ``margin`` is the model-error band that funds promotion probes
    (set it to ``1.0`` to disable promotion entirely; model candidates
    that outrank observations on raw price are still chosen).
    """

    def __init__(
        self,
        table: AutotuneTable | None = None,
        *,
        margin: float = MODEL_ERROR_BAND,
    ) -> None:
        if margin < 1.0:
            raise PlanError(f"margin must be >= 1.0, got {margin}")
        self.table = table
        self.margin = margin

    def _table(self) -> AutotuneTable:
        return self.table if self.table is not None else default_autotune_table()

    def plan(
        self,
        ring: "Semiring | str | MmoOpcode",
        m: int,
        n: int,
        k: int,
        *,
        has_accumulator: bool = False,
        density_a: float = 1.0,
        density_b: float = 1.0,
    ) -> DispatchPlan:
        """The ranked :class:`DispatchPlan` for one launch."""
        opcode = resolve_opcode(ring)
        ring_name = opcode.semiring.name
        table = self._table()
        # Steady-state fast path: plans are memoised on the table against
        # its version, which moves only when an observation could change
        # a ranking (plans depend on the table solely through per-bucket
        # best_s values).  Keyed by the *exact* densities, not their bins
        # — near the crossover two same-bin launches can rank differently
        # cold, and the plan stamps the densities it was built from.
        plan_key = (
            opcode.name, m, n, k, density_a, density_b,
            has_accumulator, self.margin,
        )
        cached = table.cached_plan(plan_key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        names = [
            name
            for name in capable_backends(
                ring_name, has_accumulator=has_accumulator
            )
            if not _is_planning_backend(name)
        ]
        if not names:
            raise PlanError(
                f"no capable backend for the {ring_name} ring"
                + (" with an accumulator" if has_accumulator else "")
            )
        spec = LaunchSpec(
            ring_name, m, n, k,
            density_a=density_a, density_b=density_b,
            has_accumulator=has_accumulator,
        )
        model_costs = {name: estimate(name, spec) for name in names}
        observations = table.observed_many(
            names, opcode.name, m=m, n=n, k=k,
            density_a=density_a, density_b=density_b,
        )
        counts: dict[str, int] = {}
        candidates = []
        for name in names:
            observed = observations[name]
            if observed is not None:
                best_s, counts[name] = observed
                candidates.append(PlanCandidate(name, best_s, "observed"))
            else:
                counts[name] = 0
                candidates.append(
                    PlanCandidate(name, model_costs[name], "model")
                )
        ranked = sorted(candidates, key=lambda c: (c.cost_s, c.backend))
        reprobe = False
        if ranked[0].source == "observed":
            # Promotion: a model-vs-model tie, not observed seconds — the
            # band describes the model's own residual, so it must not
            # depend on the substrate's absolute speed, and a genuine
            # coin toss means the two model prices sit within the band of
            # each other *both ways*.
            best_model = model_costs[ranked[0].backend]
            unprobed = [
                c
                for c in ranked[1:]
                if c.source == "model"
                and model_costs[c.backend] <= self.margin * best_model
                and best_model <= self.margin * model_costs[c.backend]
            ]
            if unprobed:
                chosen = min(unprobed, key=lambda c: (c.cost_s, c.backend))
                ranked.remove(chosen)
                ranked.insert(0, chosen)
            else:
                # Re-probe: a candidate the model prefers *beyond* the
                # band lost on measurement, with too few samples for the
                # loss to be trusted — one scheduling burst can poison a
                # fresh bucket's best time, and pure best-observed
                # exploitation would then starve it of the
                # re-measurement that clears it.  Each re-probe adds a
                # sample, so the suspicion self-extinguishes at
                # REPROBE_OBSERVATIONS.
                suspects = [
                    c
                    for c in ranked[1:]
                    if c.source == "observed"
                    and counts[c.backend] < REPROBE_OBSERVATIONS
                    and self.margin * model_costs[c.backend] < best_model
                ]
                if suspects:
                    chosen = min(
                        suspects,
                        key=lambda c: (model_costs[c.backend], c.backend),
                    )
                    ranked.remove(chosen)
                    ranked.insert(0, chosen)
                    reprobe = True
        probe = reprobe or (
            ranked[0].source == "model"
            and any(c.source == "observed" for c in ranked[1:])
        )
        plan = DispatchPlan(
            opcode=opcode.name,
            ring=ring_name,
            shape=(m, n, k),
            density_a=density_a,
            density_b=density_b,
            candidates=tuple(ranked),
            probe=probe,
        )
        table.cache_plan(plan_key, plan)
        return plan


def crossover_density(
    m: int,
    n: int | None = None,
    k: int | None = None,
    *,
    ring: "Semiring | str | MmoOpcode",
    sparse_backend: str = "sparse",
    dense_backend: str = "vectorized",
    tolerance: float = 1e-6,
) -> float:
    """The operand density where the two model costs of ``ring`` break even.

    Below the returned density the sparse model is cheaper, above it the
    dense one — the planner's cold prediction of the paper's Fig-14
    crossover for this substrate.  ``0.0`` means the dense backend wins
    at every density, ``1.0`` that the sparse one does (both operands are
    assumed equally dense).  Bisection over ``[0, 1]``; both cost curves
    are monotone in density.
    """
    n = m if n is None else n
    k = m if k is None else k
    ring_name = resolve_opcode(ring).semiring.name

    def gap(density: float) -> float:
        spec = LaunchSpec(
            ring_name, m, n, k, density_a=density, density_b=density
        )
        return estimate(sparse_backend, spec) - estimate(dense_backend, spec)

    lo, hi = 0.0, 1.0
    if gap(lo) > 0.0:
        return 0.0
    if gap(hi) < 0.0:
        return 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def planner_order(
    ring: "Semiring | str | MmoOpcode",
    a: np.ndarray,
    b: np.ndarray,
    c: "np.ndarray | None" = None,
    *,
    table: AutotuneTable | None = None,
) -> tuple[str, ...]:
    """Ranked concrete backend names for a launch — the fallback order.

    The order :class:`~repro.resilience.policy.FallbackChain` consumes:
    the launch's real plan order, capability-filtered and density-aware.
    """
    from repro.sparse.density import estimate_density

    opcode = resolve_opcode(ring)
    m, k = a.shape
    n = b.shape[1]
    plan = Planner(table).plan(
        opcode, m, n, k,
        has_accumulator=c is not None,
        density_a=estimate_density(a, opcode.semiring),
        density_b=estimate_density(b, opcode.semiring),
    )
    return plan.order
