"""Second property-based suite: cross-layer invariants of the extensions."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.floyd_warshall import floyd_warshall
from repro.compile.lower import build_tile_mmo_program
from repro.core import SEMIRINGS, SemiringMatrix, mmo
from repro.isa import MmoOpcode, Program, assemble, disassemble, verify_program
from repro.isa.optimizer import optimize_program
from repro.hw import Simd2Device
from repro.resilience import resilient_closure
from repro.runtime import (
    ExecutionContext,
    HostRuntime,
    closure,
    mmo_tiled,
    mmo_tiled_split_k,
    vxm,
)
from repro.runtime.batched import batched_mmo
from repro.sched.executor import SerialExecutor, ThreadPoolExecutor

seeds = st.integers(0, 2**32 - 1)
IDEMPOTENT = ("min-plus", "max-plus", "min-max", "max-min", "or-and")
METHODS = ("leyzorek", "bellman-ford", "blocked")


def _closure_input(ring_name: str, n: int, seed: int) -> np.ndarray:
    """A square matrix in the ring's natural closure encoding."""
    rng = np.random.default_rng(seed)
    ring = SEMIRINGS[ring_name]
    if ring.is_boolean():
        adj = rng.random((n, n)) < 0.3
        np.fill_diagonal(adj, True)
        return adj
    mask = rng.random((n, n)) < 0.3
    if ring_name == "max-plus":
        # Longest paths need a DAG: positive cycles have no fixpoint.
        mask = np.triu(mask, k=1)
    weights = rng.integers(1, 9, (n, n)).astype(float)
    adj = np.where(mask, weights, float(ring.oplus_identity))
    diag = 0.0 if ring_name in ("min-plus", "max-plus") else (
        np.inf if ring_name == "max-min" else -np.inf
    )
    np.fill_diagonal(adj, diag)
    return adj


class TestClosureAcrossRings:
    @given(st.sampled_from(IDEMPOTENT), st.integers(3, 16), seeds)
    @settings(max_examples=40, deadline=None)
    def test_closure_is_a_fixpoint_for_every_idempotent_ring(self, name, n, seed):
        adj = _closure_input(name, n, seed)
        result = closure(name, adj, method="leyzorek")
        again, _ = mmo_tiled(name, result.matrix, result.matrix, result.matrix)
        np.testing.assert_array_equal(again, result.matrix)

    @given(st.sampled_from(IDEMPOTENT), st.integers(3, 160), seeds)
    @settings(max_examples=30, deadline=None)
    def test_methods_agree_for_every_idempotent_ring(self, name, n, seed):
        # n up to 160 covers one to three blocked rounds and sizes off the
        # 16- and 64-grids; the weights keep every path fp16-exact.
        adj = _closure_input(name, n, seed)
        expected, _ = floyd_warshall(name, adj)
        for method in METHODS:
            np.testing.assert_array_equal(
                closure(name, adj, method=method).matrix, expected
            )

    @given(
        st.sampled_from(IDEMPOTENT),
        st.sampled_from(METHODS),
        st.integers(3, 160),
        seeds,
    )
    @settings(max_examples=20, deadline=None)
    def test_closure_drivers_agree(self, name, method, n, seed):
        adj = _closure_input(name, n, seed)
        results = []
        for bands in (1, 3):
            for scheduler in (SerialExecutor(), ThreadPoolExecutor(max_workers=2)):
                ctx = ExecutionContext(backend="vectorized", scheduler=scheduler)
                results.append(
                    closure(name, adj, method=method, bands=bands, context=ctx)
                )
        for backend in ("sparse", "auto"):
            ctx = ExecutionContext(backend=backend)
            results.append(closure(name, adj, method=method, context=ctx))
        ctx = ExecutionContext(backend="vectorized")
        host = HostRuntime(context=ctx)
        host.upload("dist", adj)
        results += [
            host.run_closure(name, "dist", method=method),
            resilient_closure(name, adj, method=method, context=ctx),
            resilient_closure(
                name, adj, method=method, context=ctx,
                devices=[Simd2Device(), Simd2Device()],
            ),
        ]
        reference = results[0]
        for result in results:
            np.testing.assert_array_equal(result.matrix, reference.matrix)
            assert result.iterations == reference.iterations
            assert result.converged == reference.converged
            assert result.mmo_calls == len(result.kernel_stats)


class TestSemiringMatrixProperties:
    @given(st.sampled_from(sorted(SEMIRINGS)), st.integers(2, 10), seeds)
    @settings(max_examples=40, deadline=None)
    def test_matmul_matches_mmo(self, name, n, seed):
        rng = np.random.default_rng(seed)
        ring = SEMIRINGS[name]
        if ring.is_boolean():
            data = rng.random((n, n)) < 0.4
        else:
            data = rng.integers(-5, 6, (n, n)).astype(float)
        wrapped = SemiringMatrix(data, ring)
        np.testing.assert_array_equal(
            (wrapped @ wrapped).to_array(), mmo(ring, data, data)
        )

    @given(st.integers(2, 10), seeds)
    @settings(max_examples=30)
    def test_oplus_add_is_idempotent_for_min(self, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-5, 6, (n, n)).astype(float)
        wrapped = SemiringMatrix(data, "min-plus")
        np.testing.assert_array_equal((wrapped + wrapped).to_array(), wrapped.to_array())


class TestKernelSchedulingProperties:
    @given(st.sampled_from(sorted(SEMIRINGS)), st.integers(1, 5), st.integers(1, 40), seeds)
    @settings(max_examples=40, deadline=None)
    def test_split_k_is_schedule_invariant(self, name, splits, k, seed):
        rng = np.random.default_rng(seed)
        ring = SEMIRINGS[name]
        if ring.is_boolean():
            a = rng.random((6, k)) < 0.4
            b = rng.random((k, 7)) < 0.4
        else:
            a = rng.integers(-4, 5, (6, k)).astype(float)
            b = rng.integers(-4, 5, (k, 7)).astype(float)
        split, _ = mmo_tiled_split_k(ring, a, b, splits=splits)
        np.testing.assert_array_equal(split, mmo(ring, a, b))

    @given(st.integers(1, 4), st.integers(2, 8), seeds)
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_loop(self, batch, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-4, 5, (batch, n, n)).astype(float)
        b = rng.integers(-4, 5, (batch, n, n)).astype(float)
        stacked, stats = batched_mmo("min-plus", a, b)
        assert stats.batch == batch
        for i in range(batch):
            np.testing.assert_array_equal(stacked[i], mmo("min-plus", a[i], b[i]))


class TestVectorConsistency:
    @given(st.sampled_from(("min-plus", "max-plus", "or-and", "plus-mul")), st.integers(2, 10), seeds)
    @settings(max_examples=40, deadline=None)
    def test_vxm_equals_matrix_row(self, name, n, seed):
        rng = np.random.default_rng(seed)
        ring = SEMIRINGS[name]
        if ring.is_boolean():
            x = rng.random(n) < 0.5
            a = rng.random((n, n)) < 0.4
        else:
            x = rng.integers(1, 9, n).astype(float)
            a = rng.integers(1, 9, (n, n)).astype(float)
        np.testing.assert_array_equal(vxm(ring, x, a), mmo(ring, x[None, :], a)[0])


class TestToolchainComposition:
    @given(st.sampled_from(list(MmoOpcode)), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_generated_kernels_survive_the_full_toolchain(self, opcode, tiles_k):
        program, _, _ = build_tile_mmo_program(
            opcode, tiles_k, boolean=opcode.semiring.is_boolean()
        )
        # verify → optimise → disassemble → reassemble → verify again
        assert verify_program(program).ok
        optimised = optimize_program(program).program
        assert optimised == program  # generated kernels carry no dead code
        reassembled = Program(assemble(disassemble(list(program))))
        assert reassembled == program
        assert verify_program(reassembled).ok
