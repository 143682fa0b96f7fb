"""The compile/execute split end to end: parity, cache flow, trace counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import capable_backends, get_backend, list_backends
from repro.bench import render_trace
from repro.compile import (
    CompileError,
    PlanCache,
    grid_for,
    lower_mmo,
    resolve_opcode,
)
from repro.core import SEMIRINGS, mmo
from repro.hw.device import Simd2Device
from repro.runtime import (
    ExecutionContext,
    HostRuntime,
    Trace,
    batched_mmo,
    closure,
    mmo_tiled,
    mmo_tiled_multi_device,
    mmo_tiled_split_k,
    resolve_context,
)
from repro.runtime.kernels import execute_compiled
from tests.conftest import make_ring_inputs


def _path_graph(n: int) -> np.ndarray:
    """Min-plus adjacency of a directed path: closure needs >1 iteration."""
    adjacency = np.full((n, n), np.inf)
    np.fill_diagonal(adjacency, 0.0)
    for i in range(n - 1):
        adjacency[i, i + 1] = 1.0
    return adjacency


class TestCompileExecuteParity:
    def test_all_backends_agree_through_the_split(self, ring, rng):
        """Registry-driven: every backend, compiled then executed directly.

        Bit-exact for idempotent/boolean ⊕ (and for these small-integer
        operands generally); allclose guards the plus-based rings where a
        backend may fold the k-reduction in a different order.
        """
        opcode = resolve_opcode(ring)
        m, k, n = 20, 33, 17
        a, b, c = make_ring_inputs(ring, m, k, n, rng)
        expected = mmo(ring, a, b, c)
        from repro.backends import capabilities_of

        compiled = lower_mmo(opcode, *grid_for(m, n, k), has_accumulator=True)
        for name in list_backends():
            impl = get_backend(name)
            if not capabilities_of(impl).supports(
                ring.name, has_accumulator=True
            ):
                continue  # declared incapability (e.g. sparse × plus-norm)
            ctx = resolve_context(None, backend=name)
            got, stats = impl.execute(compiled, a, b, c, context=ctx)
            assert (stats.tiles_m, stats.tiles_n, stats.tiles_k) == compiled.grid
            if ring.oplus is np.add:
                np.testing.assert_allclose(
                    got.astype(np.float64), expected.astype(np.float64),
                    rtol=1e-4, err_msg=f"backend {name}",
                )
            else:
                np.testing.assert_array_equal(
                    got, expected, err_msg=f"backend {name}"
                )

    def test_artifact_replays_across_shapes_in_its_tile_class(self, rng):
        # One artifact, two different (m, n, k) in the same 16-ceiling class.
        ctx = resolve_context(None)
        opcode = resolve_opcode("min-plus")
        compiled = lower_mmo(opcode, *grid_for(20, 17, 33), has_accumulator=False)
        for m, k, n in [(20, 33, 17), (32, 48, 32)]:
            a, b, _ = make_ring_inputs(opcode.semiring, m, k, n, rng, with_c=False)
            got, _ = execute_compiled(compiled, a, b, context=ctx)
            np.testing.assert_array_equal(got, mmo("min-plus", a, b))


class TestCacheFlow:
    def test_repeat_launches_hit(self, rng):
        cache = PlanCache()
        trace = Trace()
        ctx = ExecutionContext(trace=trace, plan_cache=cache)
        a, b, c = make_ring_inputs(
            __import__("repro.core", fromlist=["SEMIRINGS"]).SEMIRINGS["min-plus"],
            20, 33, 17, rng,
        )
        mmo_tiled("min-plus", a, b, c, context=ctx)
        mmo_tiled("min-plus", a, b, c, context=ctx)
        assert [r.cache_hit for r in trace.records] == [False, True]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_disabled_cache_misses_every_launch(self, rng):
        trace = Trace()
        ctx = ExecutionContext(trace=trace, plan_cache=PlanCache(maxsize=0))
        a, b, c = make_ring_inputs(
            __import__("repro.core", fromlist=["SEMIRINGS"]).SEMIRINGS["min-plus"],
            20, 33, 17, rng,
        )
        mmo_tiled("min-plus", a, b, c, context=ctx)
        mmo_tiled("min-plus", a, b, c, context=ctx)
        assert [r.cache_hit for r in trace.records] == [False, False]

    def test_split_k_partitions_share_one_artifact(self, rng):
        cache = PlanCache()
        trace = Trace()
        ctx = ExecutionContext(trace=trace, plan_cache=cache)
        a, b, _ = make_ring_inputs(
            __import__("repro.core", fromlist=["SEMIRINGS"]).SEMIRINGS["min-plus"],
            16, 64, 16, rng, with_c=False,
        )
        mmo_tiled_split_k("min-plus", a, b, splits=4, context=ctx)
        assert [r.cache_hit for r in trace.records] == [False, True, True, True]
        assert cache.stats().misses == 1

    def test_batched_compiles_once(self, rng):
        cache = PlanCache()
        trace = Trace()
        ctx = ExecutionContext(trace=trace, plan_cache=cache)
        a = rng.integers(-4, 5, size=(3, 20, 33)).astype(np.float64)
        b = rng.integers(-4, 5, size=(3, 33, 17)).astype(np.float64)
        batched_mmo("min-plus", a, b, context=ctx)
        assert [r.cache_hit for r in trace.records] == [False, True, True]
        assert cache.stats().misses == 1

    def test_one_artifact_serves_every_backend(self, rng):
        # The plan-cache key names no backend: the first backend lowers
        # the shape, every other capable backend replays that artifact.
        cache = PlanCache()
        trace = Trace()
        a, b, _ = make_ring_inputs(
            SEMIRINGS["min-plus"], 20, 33, 17, rng, with_c=False
        )
        names = capable_backends("min-plus")
        for name in names:
            ctx = ExecutionContext(backend=name, trace=trace, plan_cache=cache)
            mmo_tiled("min-plus", a, b, context=ctx)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, len(names) - 1)
        assert [r.cache_hit for r in trace.records] == [False] + [True] * (
            len(names) - 1
        )

    def test_multidevice_bands_share_one_artifact(self, rng):
        cache = PlanCache()
        trace = Trace()
        ctx = ExecutionContext(
            backend="emulate", trace=trace, plan_cache=cache
        )
        a, b, _ = make_ring_inputs(
            __import__("repro.core", fromlist=["SEMIRINGS"]).SEMIRINGS["min-plus"],
            32, 16, 16, rng, with_c=False,
        )
        devices = [Simd2Device(sm_count=2), Simd2Device(sm_count=2)]
        out, shares = mmo_tiled_multi_device(
            "min-plus", a, b, devices=devices, context=ctx
        )
        assert len(shares) == 2
        np.testing.assert_array_equal(out, mmo("min-plus", a, b))
        assert [r.cache_hit for r in trace.records] == [False, True]
        assert cache.stats().misses == 1


class TestTracedClosure:
    def test_one_miss_then_hits(self):
        cache = PlanCache()
        trace = Trace()
        ctx = ExecutionContext(trace=trace, plan_cache=cache)
        result = closure("min-plus", _path_graph(12), context=ctx)
        assert result.iterations >= 2

        hits = [r.cache_hit for r in trace.records]
        assert hits[0] is False
        assert all(h is True for h in hits[1:])
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 0)  # replays bypass lookup

        summary = trace.summary()
        assert summary.cache_misses == 1
        assert summary.cache_hits == len(trace.records) - 1
        assert summary.optimizer_removed == 0  # Figure-6 programs are optimal
        assert summary.cache_hit_rate == pytest.approx(
            (len(trace.records) - 1) / len(trace.records)
        )

        text = render_trace(trace.records)
        lines = text.splitlines()
        assert sum(" miss " in line for line in lines) == 1
        assert any(" hit " in line for line in lines)
        assert f"{summary.cache_hits}/{summary.cache_lookups}" in lines[-1]

    def test_host_runtime_closure_compiles_once(self):
        cache = PlanCache()
        trace = Trace()
        runtime = HostRuntime(
            context=ExecutionContext(
                backend="emulate", trace=trace, plan_cache=cache
            )
        )
        runtime.upload("g", _path_graph(8))
        outcome = runtime.run_closure("min-plus", "g")
        assert outcome.converged
        hits = [r.cache_hit for r in trace.records]
        assert hits[0] is False and all(h is True for h in hits[1:])
        assert cache.stats().misses == 1


class TestExecuteCompiledValidation:
    def test_wrong_tile_grid_rejected(self):
        ctx = resolve_context(None)
        compiled = lower_mmo(
            resolve_opcode("min-plus"), *grid_for(16, 16, 16),
            has_accumulator=False,
        )
        with pytest.raises(CompileError, match="tile grid"):
            execute_compiled(
                compiled, np.ones((33, 16)), np.ones((16, 16)), context=ctx
            )

    def test_accumulator_mismatch_rejected(self):
        ctx = resolve_context(None)
        compiled = lower_mmo(
            resolve_opcode("min-plus"), *grid_for(16, 16, 16),
            has_accumulator=False,
        )
        with pytest.raises(CompileError, match="has_accumulator"):
            execute_compiled(
                compiled, np.ones((16, 16)), np.ones((16, 16)),
                np.ones((16, 16)), context=ctx,
            )
