"""End-to-end tests of ``backend="auto"``: bit-identity with the plan's
static choice across every ring, per-iteration re-planning on density
drift, and the planner-fed fallback chain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import capabilities_of, get_backend, list_backends
from repro.core import SEMIRINGS
from repro.plan import AutotuneTable, Planner, crossover_density
from repro.runtime.closure import closure
from repro.runtime.context import ExecutionContext
from repro.runtime.kernels import mmo_tiled
from repro.runtime.trace import Trace
from repro.sparse import estimate_density


@pytest.fixture
def rng():
    return np.random.default_rng(0xA2B)


def _ring_operands(ring, n, rng, density=1.0):
    if ring.is_boolean():
        return rng.random((n, n)) < density
    identity = float(ring.oplus_identity)
    explicit = rng.uniform(0.5, 8.5, (n, n))
    if density >= 1.0:
        return explicit
    return np.where(rng.random((n, n)) < density, explicit, identity)


class TestAutoMatchesPlannedStatic:
    """The planner decides; dispatch must not change the arithmetic."""

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_bit_identical_across_all_rings(self, name, rng):
        ring = SEMIRINGS[name]
        a = _ring_operands(ring, 48, rng, density=0.3)
        b = _ring_operands(ring, 48, rng, density=0.3)
        table = AutotuneTable()
        got, _ = mmo_tiled(
            name, a, b, context=ExecutionContext(backend="auto", autotune=table)
        )
        # Reconstruct the plan the seam consulted (same cold table state:
        # the launch above only *recorded* into it, and planning happened
        # before the observation landed).
        plan = Planner(AutotuneTable()).plan(
            name, 48, 48, 48,
            density_a=estimate_density(a, ring),
            density_b=estimate_density(b, ring),
        )
        expected, _ = mmo_tiled(name, a, b, backend=plan.best.backend)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype

    def test_trace_names_the_concrete_backend(self, rng):
        trace = Trace()
        a = _ring_operands(SEMIRINGS["min-plus"], 32, rng)
        mmo_tiled(
            "min-plus", a, a,
            context=ExecutionContext(
                backend="auto", trace=trace, autotune=AutotuneTable()
            ),
        )
        assert len(trace.records) == 1
        assert trace.records[0].backend != "auto"
        assert len(trace.plans) == 1
        assert trace.plans[0].backend == trace.records[0].backend
        assert trace.summary().plan_decisions == 1

    def test_direct_execute_path_also_selects(self, rng):
        # Callers that bypass the dispatch seam and call the backend
        # object directly still get plan-then-delegate semantics.
        from repro.compile import grid_for, lower_mmo, resolve_opcode

        auto = get_backend("auto")
        opcode = resolve_opcode("min-plus")
        ctx = ExecutionContext(backend="auto", autotune=AutotuneTable())
        a = _ring_operands(SEMIRINGS["min-plus"], 32, rng)
        compiled = lower_mmo(opcode, *grid_for(32, 32, 32), has_accumulator=False)
        got, _ = auto.execute(compiled, a, a, None, context=ctx)
        expected, _ = mmo_tiled("min-plus", a, a, backend="vectorized")
        np.testing.assert_array_equal(got, expected)

    def test_auto_is_registered(self):
        assert "auto" in list_backends()
        assert capabilities_of(get_backend("auto")).rings is None


class TestReplanOnDensityDrift:
    def test_closure_migrates_sparse_to_dense(self, rng):
        # A directed chain under min-plus: D₀ is near-empty (one explicit
        # off-diagonal band), but repeated squaring fills the upper
        # triangle — density crosses the predicted crossover and the
        # per-iteration re-planning must migrate sparse → vectorized.
        n = 256
        inf = np.inf
        d0 = np.full((n, n), inf)
        np.fill_diagonal(d0, 0.0)
        for i in range(n - 1):
            d0[i, i + 1] = 1.0
        assert estimate_density(d0, "min-plus") < crossover_density(
            n, ring="min-plus"
        )

        trace = Trace()
        ctx = ExecutionContext(
            backend="auto", trace=trace, autotune=AutotuneTable()
        )
        result = closure("min-plus", d0, context=ctx, method="leyzorek")
        assert result.converged

        chosen = [p.backend for p in trace.plans]
        assert len(chosen) >= 3  # one plan per iteration
        assert chosen[0] == "sparse"  # near-empty start
        assert chosen[-1] == "vectorized"  # dense fixpoint region
        # Every launch record names the same concrete backend its plan chose.
        assert [r.backend for r in trace.records] == chosen

        # And the arithmetic is untouched: identical to a static run.
        static = closure("min-plus", d0, backend="vectorized", method="leyzorek")
        np.testing.assert_array_equal(result.matrix, static.matrix)


class TestProbeAtTheSeam:
    def test_repeat_launches_probe_then_settle(self, rng):
        # Near the crossover both model prices sit inside the error band,
        # so once one side holds an observation the next identical launch
        # is spent measuring the other (plan.probe); with both sides
        # observed, later launches settle empirically with no more probes.
        n = 192
        ring = SEMIRINGS["min-plus"]
        d = crossover_density(n, ring="min-plus")  # a genuine model tie
        a = _ring_operands(ring, n, rng, density=d)
        table = AutotuneTable()
        trace = Trace()
        ctx = ExecutionContext(backend="auto", trace=trace, autotune=table)
        for _ in range(4):
            mmo_tiled("min-plus", a, a, context=ctx)
        plans = trace.plans
        assert len(plans) == 4
        assert any(p.probe for p in plans)  # exploration happened
        assert not plans[-1].probe  # and stopped
        assert plans[-1].refined  # final choice is observation-backed
        backends_tried = {p.backend for p in plans}
        assert len(backends_tried) >= 2  # both sides of the tie measured
