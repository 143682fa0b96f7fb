"""Tests for the Planner: cold cost-model choices, capability filtering,
bounded exploration, and the Fig-14 crossover predictions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.backends.sparse import absorbing_rings
from repro.compile.lower import resolve_opcode
from repro.plan import (
    MODEL_ERROR_BAND,
    REPROBE_OBSERVATIONS,
    AutotuneTable,
    DispatchPlan,
    PlanError,
    Planner,
    crossover_density,
    planner_order,
)
from repro.timing.backend_cost import LaunchSpec, estimate


@pytest.fixture
def planner():
    return Planner(AutotuneTable())  # isolated table: always cold


_SWEEP = Path(__file__).resolve().parents[2] / "tools" / "backend_cost_sweep.json"

#: A 192³ min-plus launch at its modelled crossover density: the two model
#: prices tie, so the planner's exploration band is in play.
TIE_N = 192
TIE_DENSITY = crossover_density(TIE_N, ring="min-plus")


def _tie_model_price(backend: str) -> float:
    return estimate(
        backend,
        LaunchSpec("min-plus", TIE_N, TIE_N, TIE_N,
                   density_a=TIE_DENSITY, density_b=TIE_DENSITY),
    )


def _record_tie(table: AutotuneTable, backend: str, wall_time_s: float) -> None:
    table.record(backend, "MINPLUS", m=TIE_N, n=TIE_N, k=TIE_N,
                 density_a=TIE_DENSITY, density_b=TIE_DENSITY,
                 wall_time_s=wall_time_s)


def _plan_tie(planner: Planner) -> DispatchPlan:
    return planner.plan("min-plus", TIE_N, TIE_N, TIE_N,
                        density_a=TIE_DENSITY, density_b=TIE_DENSITY)


class TestColdChoices:
    """Cost-model-seeded picks pinned at the calibrated operating points."""

    def test_dense_launches_pick_vectorized(self, planner):
        for n in (128, 256):
            plan = planner.plan("min-plus", n, n, n, density_a=1.0, density_b=1.0)
            assert plan.best.backend == "vectorized"
            assert plan.best.source == "model"

    def test_very_sparse_large_launches_pick_sparse(self, planner):
        for n in (128, 256):
            plan = planner.plan(
                "min-plus", n, n, n, density_a=0.005, density_b=0.005
            )
            assert plan.best.backend == "sparse"

    def test_small_launches_stay_vectorized_even_when_sparse(self, planner):
        # At n=64 spGEMM's per-launch and per-row overheads outweigh the
        # dense pass at all but the sparsest operands.
        assert crossover_density(64, ring="min-plus") < 0.01
        plan = planner.plan("min-plus", 64, 64, 64, density_a=0.01, density_b=0.01)
        assert plan.best.backend == "vectorized"

    def test_emulate_ranks_last_among_builtins(self, planner):
        plan = planner.plan("plus-mul", 128, 128, 128)
        order = [c.backend for c in plan.candidates]
        assert order.index("emulate") > order.index("vectorized")

    def test_plan_is_shape_and_ring_stamped(self, planner):
        plan = planner.plan("max-plus", 32, 48, 16, density_a=0.5, density_b=0.5)
        assert isinstance(plan, DispatchPlan)
        assert plan.ring == "max-plus"
        assert plan.shape == (32, 48, 16)
        assert plan.density_a == 0.5
        assert not plan.refined and not plan.probe


class TestCapabilityFiltering:
    def test_non_absorbing_rings_exclude_sparse(self, planner):
        for ring in ("plus-norm", "min-mul", "max-mul"):
            plan = planner.plan(ring, 128, 128, 128, density_a=0.01, density_b=0.01)
            assert "sparse" not in plan.order

    def test_planning_backends_never_self_nominate(self, planner):
        plan = planner.plan("min-plus", 64, 64, 64)
        assert "auto" not in plan.order

    def test_no_capable_backend_raises(self, planner, monkeypatch):
        import repro.backends.base as base

        monkeypatch.setattr(base, "_REGISTRY", {})
        monkeypatch.setattr(base, "_BUILTINS_LOADED", True)
        with pytest.raises(PlanError, match="no capable backend"):
            planner.plan("min-plus", 16, 16, 16)


class TestRefinement:
    def test_observation_beats_model(self):
        table = AutotuneTable()
        # Claim sparse is (implausibly) fast on a dense 128³ launch; with
        # vectorized also observed often enough to be trusted, the
        # empirical ranking must flip.  Emulate is observed too: its model
        # price ties sparse's, which would fund a promotion probe.
        table.record("sparse", "MINPLUS", m=128, n=128, k=128,
                     density_a=1.0, density_b=1.0, wall_time_s=1e-6)
        table.record("emulate", "MINPLUS", m=128, n=128, k=128,
                     density_a=1.0, density_b=1.0, wall_time_s=1.0)
        for _ in range(REPROBE_OBSERVATIONS):
            table.record("vectorized", "MINPLUS", m=128, n=128, k=128,
                         density_a=1.0, density_b=1.0, wall_time_s=1e-3)
        plan = Planner(table).plan("min-plus", 128, 128, 128)
        assert plan.best.backend == "sparse"
        assert plan.best.source == "observed"
        assert plan.refined

    def test_probe_promotes_unobserved_near_tie(self):
        table = AutotuneTable()
        # Observe only vectorized; sparse's model estimate at this point
        # sits within the error band, so the planner spends one probe.
        plan_cold = _plan_tie(Planner(AutotuneTable()))
        costs = {c.backend: c.cost_s for c in plan_cold.candidates}
        assert costs["sparse"] <= MODEL_ERROR_BAND * costs["vectorized"]
        _record_tie(table, "vectorized", costs["vectorized"])
        plan = _plan_tie(Planner(table))
        assert plan.probe
        assert plan.best.backend == "sparse"
        assert plan.best.source == "model"

    def test_no_probe_outside_the_band(self):
        table = AutotuneTable()
        # Fully dense at 128³: sparse's model price is far beyond the
        # band, so no probe is spent.
        table.record("vectorized", "MINPLUS", m=128, n=128, k=128,
                     density_a=1.0, density_b=1.0, wall_time_s=2e-4)
        plan = Planner(table).plan("min-plus", 128, 128, 128)
        assert not plan.probe
        assert plan.best.backend == "vectorized"

    def test_probe_fires_at_most_once_per_bucket(self):
        table = AutotuneTable()
        # Observe vectorized at its own model price, so sparse's model
        # estimate stays inside the exploration band.
        vectorized_s = _tie_model_price("vectorized")
        _record_tie(table, "vectorized", vectorized_s)
        p = Planner(table)
        first = _plan_tie(p)
        assert first.probe
        # Once the probed backend has its own observation the ranking is
        # purely empirical: no further probes in this bucket.
        _record_tie(table, first.best.backend, 4 * vectorized_s)
        second = _plan_tie(p)
        assert not second.probe
        assert second.best.backend == "vectorized"

    def test_reprobe_recovers_a_poisoned_observation(self):
        table = AutotuneTable()
        # A scheduling burst lands an 18x-slow sample in vectorized's
        # fresh bucket at dense 256³, after which emulate's honest time
        # wins the empirical ranking.  The model prefers vectorized far
        # beyond the band, so the planner spends a re-probe on it instead
        # of exploiting the poisoned table forever.  (Min-mul has no
        # sparse candidate, whose model price would tie emulate's.)
        table.record("vectorized", "MINMUL", m=256, n=256, k=256,
                     density_a=1.0, density_b=1.0, wall_time_s=0.72)
        table.record("emulate", "MINMUL", m=256, n=256, k=256,
                     density_a=1.0, density_b=1.0, wall_time_s=0.46)
        p = Planner(table)
        plan = p.plan("min-mul", 256, 256, 256)
        assert plan.probe
        assert plan.best.backend == "vectorized"
        assert plan.best.source == "observed"
        # The re-probe's honest measurement clears the poison.
        table.record("vectorized", "MINMUL", m=256, n=256, k=256,
                     density_a=1.0, density_b=1.0, wall_time_s=0.04)
        healed = p.plan("min-mul", 256, 256, 256)
        assert healed.best.backend == "vectorized"

    def test_reprobe_suspicion_extinguishes_at_the_cap(self):
        table = AutotuneTable()
        # The model is simply wrong here: vectorized genuinely lost.
        # After REPROBE_OBSERVATIONS consistent samples the loss is
        # trusted and the planner stops paying for re-measurement.
        table.record("emulate", "MINMUL", m=256, n=256, k=256,
                     density_a=1.0, density_b=1.0, wall_time_s=0.46)
        p = Planner(table)
        for _ in range(REPROBE_OBSERVATIONS):
            plan = p.plan("min-mul", 256, 256, 256)
            table.record(plan.best.backend, "MINMUL", m=256, n=256, k=256,
                         density_a=1.0, density_b=1.0, wall_time_s=0.72)
        settled = p.plan("min-mul", 256, 256, 256)
        assert not settled.probe
        assert settled.best.backend == "emulate"

    def test_margin_one_disables_probing(self):
        table = AutotuneTable()
        _record_tie(table, "vectorized", 1e-3)
        plan = _plan_tie(Planner(table, margin=1.0))
        assert not plan.probe

    def test_bad_margin_rejected(self):
        with pytest.raises(PlanError, match="margin"):
            Planner(AutotuneTable(), margin=0.5)


class TestCrossoverDensity:
    def test_no_crossover_at_small_n(self):
        # A one-tile launch: spGEMM's fixed costs exceed the whole dense
        # pass even on an empty operand.
        empty = LaunchSpec("min-plus", 16, 16, 16, density_a=0.0, density_b=0.0)
        assert estimate("sparse", empty) > estimate("vectorized", empty)
        assert crossover_density(16, ring="min-plus") == 0.0

    @pytest.mark.parametrize("ring", sorted(absorbing_rings()))
    @pytest.mark.parametrize("n", [64, 128, 192, 256, 384, 1024])
    def test_crossover_separates_the_cold_choices(self, planner, ring, n):
        def pick(density):
            return planner.plan(ring, n, n, n, density_a=density,
                                density_b=density).best.backend

        crossover = crossover_density(n, ring=ring)
        if ring == "or-and":
            # The packed dense pass beats spGEMM at every density.
            assert crossover == 0.0
            assert pick(0.0) == pick(0.001) == "vectorized"
            return
        assert 0.0 < crossover < 1.0
        assert pick(crossover / 2) == "sparse"
        assert pick(2 * crossover) == "vectorized"

    def test_crossover_region_matches_substrate_measurements(self):
        # On every launch of the committed cost sweep, the side of the
        # modelled crossover a density falls on names a backend measured
        # within the model's error band of the other one.  Or-and's dense
        # pass is timed at each density, the other rings' on dense operands.
        with open(_SWEEP, encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        dense = {
            (r["ring"], r["m"], r["n"], r["k"], r["density"]): r["seconds"]
            for r in records
            if r["backend"] == "vectorized"
        }
        checked = 0
        for r in records:
            key = (r["ring"], r["m"], r["n"], r["k"])
            dense_s = dense.get((*key, r["density"]), dense.get((*key, 1.0)))
            if r["backend"] != "sparse" or dense_s is None:
                continue
            sparse_s = r["seconds"]
            if r["density"] < crossover_density(r["m"], ring=r["ring"]):
                assert sparse_s <= MODEL_ERROR_BAND * dense_s, r
            else:
                assert dense_s <= MODEL_ERROR_BAND * sparse_s, r
            checked += 1
        assert checked > 100

    def test_crossover_is_per_ring(self):
        # Or-and's dense pass is several times cheaper than min-plus's, so
        # spGEMM must be sparser to beat it.
        assert crossover_density(1024, ring="or-and") < crossover_density(
            1024, ring="min-plus"
        )


class TestFittedDecisions:
    """Model-only decisions the fitted prices must get right (no timing)."""

    @pytest.mark.parametrize("has_accumulator", [False, True])
    @pytest.mark.parametrize("factor", [1.0, 2.0, 5.0])
    def test_a_slow_observation_never_moves_a_tiny_launch_to_emulate(
        self, has_accumulator, factor
    ):
        # A 1×24×70 plus-mul launch: one vectorized observation up to 5x
        # its fitted price still undercuts emulate's price.
        m, k, n = 1, 24, 70
        spec = LaunchSpec("plus-mul", m, n, k, has_accumulator=has_accumulator)
        table = AutotuneTable()
        table.record("vectorized", resolve_opcode("plus-mul").name, m=m, n=n, k=k,
                     wall_time_s=factor * estimate("vectorized", spec))
        plan = Planner(table).plan("plus-mul", m, n, k,
                                   has_accumulator=has_accumulator)
        assert plan.best.backend != "emulate"
        assert estimate("emulate", spec) > 5 * estimate("vectorized", spec)

    @pytest.mark.parametrize(
        "density,backend",
        [(0.004, "vectorized"), (0.02, "vectorized"), (0.19, "vectorized"),
         (0.93, "vectorized")],
    )
    def test_gtc_squarings(self, planner, density, backend):
        # GTC's Leyzorek squarings of a 1024-vertex graph: every iterate,
        # from 0.004 dense to 0.93, goes to the packed dense kernel.
        plan = planner.plan("or-and", 1024, 1024, 1024, has_accumulator=True,
                            density_a=density, density_b=density)
        assert plan.best.backend == backend


class TestPlannerOrder:
    def test_full_operands_give_density_aware_order(self):
        import numpy as np

        rng = np.random.default_rng(7)
        a = np.where(rng.random((256, 256)) < 0.005, 1.0, np.inf)
        order = planner_order("min-plus", a, a, table=AutotuneTable())
        assert order[0] == "sparse"
