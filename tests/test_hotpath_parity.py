"""Parity of the vectorized hot paths against their scalar references.

The emulator's batched warp-mmo decomposition and the vectorized spGEMM
merge replaced per-scalar Python loops that are kept in-tree as oracles
(``WarpExecutor(batched_mmo=False)`` / :func:`spgemm_reference`).  These
property-based tests sweep random shapes and densities across all nine
rings and assert bit-identical values *and* identical statistics, plus
emulate-backend coverage for split-k.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import capabilities_of, get_backend, list_backends
from repro.core import SEMIRINGS, mmo_reference, ops
from repro.datasets import PointCloudSpec, uniform_points
from repro.hw.device import Simd2Device
from repro.runtime import ExecutionContext, Trace
from repro.runtime.kernels import mmo_tiled, mmo_tiled_split_k
from repro.sparse import CsrMatrix, spgemm, spgemm_reference

ring_names = st.sampled_from(sorted(SEMIRINGS))
dims = st.integers(1, 40)
seeds = st.integers(0, 2**32 - 1)


def _dense_operands(ring, m, k, n, seed, continuous=False):
    """Random dense operands; ``continuous=True`` draws non-integer floats.

    Integer-valued floats make every intermediate sum exactly
    representable, which hides accumulation-order divergences; the
    continuous cases are what actually exercise bit-exactness claims
    where rounding matters.
    """
    rng = np.random.default_rng(seed)
    if ring.is_boolean():
        return rng.random((m, k)) < 0.4, rng.random((k, n)) < 0.4
    if continuous:
        return rng.random((m, k)) * 12 - 6, rng.random((k, n)) * 12 - 6
    a = rng.integers(-6, 7, (m, k)).astype(np.float64)
    b = rng.integers(-6, 7, (k, n)).astype(np.float64)
    return a, b


def _sparse_operands(ring, m, k, n, density, seed, continuous=False):
    rng = np.random.default_rng(seed)
    if ring.is_boolean():
        a = rng.random((m, k)) < density
        b = rng.random((k, n)) < density
        implicit = False
    else:
        implicit = float(ring.oplus_identity)

        def explicit(shape):
            if continuous:
                # [0.5, 8.5): never collides with 0 / ±inf implicit values.
                return rng.random(shape) * 8 + 0.5
            return rng.integers(1, 9, shape)

        a = np.where(
            rng.random((m, k)) < density, explicit((m, k)), implicit
        ).astype(float)
        b = np.where(
            rng.random((k, n)) < density, explicit((k, n)), implicit
        ).astype(float)
    return CsrMatrix.from_dense(a, implicit=implicit), CsrMatrix.from_dense(
        b, implicit=implicit
    )


@pytest.mark.parametrize("backend", list_backends())
@pytest.mark.parametrize("name", sorted(SEMIRINGS))
class TestRegistryBackendParity:
    """Registry-driven cross-backend agreement, all backends × all rings.

    Every *registered* backend — including any added after this test was
    written — is compared against the vectorised reference: bit-exact for
    the idempotent-⊕ rings (min/max/or selections commute with any fold
    order), allclose for the plus-based rings (float ⊕ reassociates
    across backends' different reduction orders).

    Backends declare which rings they can run
    (:class:`~repro.backends.BackendCapabilities`); combinations a
    backend excludes — e.g. sparse × the non-⊗-absorbing rings — are
    skipped here and rejected with a :class:`BackendError` at dispatch.
    """

    def _skip_if_incapable(self, backend, name, *, has_accumulator=False):
        caps = capabilities_of(get_backend(backend))
        if not caps.supports(name, has_accumulator=has_accumulator):
            pytest.skip(f"backend {backend!r} declares no support for {name}")

    def _operands(self, ring, m, k, n, seed):
        rng = np.random.default_rng(seed)
        if ring.is_boolean():
            return (
                rng.random((m, k)) < 0.4,
                rng.random((k, n)) < 0.4,
                rng.random((m, n)) < 0.2,
            )
        # Continuous positive values in [0.5, 8.5): exactly the regime
        # where fold order matters, and never colliding with a ring's
        # ⊕ identity (0 or ±inf), so sparse compression stays non-trivial.
        return (
            rng.uniform(0.5, 8.5, (m, k)),
            rng.uniform(0.5, 8.5, (k, n)),
            rng.uniform(0.5, 8.5, (m, n)),
        )

    def _assert_agrees(self, ring, got, expected):
        assert got.dtype == expected.dtype
        if ring.oplus is np.add:
            np.testing.assert_allclose(
                got.astype(np.float64), expected.astype(np.float64), rtol=1e-5
            )
        else:
            np.testing.assert_array_equal(got, expected)

    def test_matches_vectorized_reference(self, name, backend):
        self._skip_if_incapable(backend, name, has_accumulator=True)
        ring = SEMIRINGS[name]
        a, b, c = self._operands(ring, 23, 37, 19, seed=0xA11CE)
        expected, ref_stats = mmo_tiled(name, a, b, c, backend="vectorized")
        got, stats = mmo_tiled(name, a, b, c, backend=backend)
        self._assert_agrees(ring, got, expected)
        # Identical tile grids ⇒ identical static instruction counts,
        # whatever substrate executed them (the paper's cross-check).
        assert (stats.tiles_m, stats.tiles_n, stats.tiles_k) == (
            ref_stats.tiles_m, ref_stats.tiles_n, ref_stats.tiles_k,
        )
        assert stats.mmo_instructions == ref_stats.mmo_instructions

    def test_no_accumulator(self, name, backend):
        # A launch without C starts from the ⊕ identity instead of building
        # an identity accumulator, and returns its output uncopied when no
        # padding is cropped: on- and off-grid shapes and a one-row launch.
        self._skip_if_incapable(backend, name, has_accumulator=True)
        ring = SEMIRINGS[name]
        for m, k, n in [(16, 16, 16), (23, 37, 19), (32, 40, 48), (1, 24, 70)]:
            a, b, _ = self._operands(ring, m, k, n, seed=0xBEE)
            identity = ring.full((m, n))
            expected, _ = mmo_tiled(name, a, b, backend="vectorized")
            trace = Trace()
            ctx = ExecutionContext(backend=backend, trace=trace)
            got, _ = mmo_tiled(name, a, b, context=ctx)
            self._assert_agrees(ring, got, expected)
            with_identity, _ = mmo_tiled(name, a, b, identity, context=ctx)
            if not trace.plans:
                np.testing.assert_array_equal(got, with_identity)
            else:
                # A planning backend picks each launch's backend on its own,
                # from observations that timing noise can move, and the
                # plus rings' folds differ in the last bits across backends.
                # Each launch must equal, bit for bit, the same launch on
                # the static backend its PlanRecord names.
                no_c, with_c = (plan.backend for plan in trace.plans)
                np.testing.assert_array_equal(
                    got, mmo_tiled(name, a, b, backend=no_c)[0]
                )
                np.testing.assert_array_equal(
                    with_identity, mmo_tiled(name, a, b, identity, backend=with_c)[0]
                )
            a_before, b_before = a.copy(), b.copy()
            got[...] = ring.oplus_identity
            np.testing.assert_array_equal(a, a_before)
            np.testing.assert_array_equal(b, b_before)

    def test_aligned_accumulator_is_only_read(self, name, backend):
        # An aligned C in the output dtype reaches the backend uncopied
        # (plan_mmo copies only what it pads): the caller's C must come
        # back unchanged and unshared with the result.
        self._skip_if_incapable(backend, name, has_accumulator=True)
        ring = SEMIRINGS[name]
        a, b, c = self._operands(ring, 32, 16, 48, seed=0xC0C)
        c = c.astype(ring.output_dtype)
        c_before = c.copy()
        got, _ = mmo_tiled(name, a, b, c, backend=backend)
        np.testing.assert_array_equal(c, c_before)
        assert not np.shares_memory(got, c)

    def test_degenerate_inner_dimension(self, name, backend):
        self._skip_if_incapable(backend, name)
        ring = SEMIRINGS[name]
        a = np.zeros((5, 0), dtype=ring.output_dtype)
        b = np.zeros((0, 4), dtype=ring.output_dtype)
        got, stats = mmo_tiled(name, a, b, backend=backend)
        np.testing.assert_array_equal(got, ring.full((5, 4)))
        assert stats.tiles_k == 1
        assert (
            stats.mmo_instructions
            == stats.tiles_m * stats.tiles_n * stats.tiles_k
        )


@pytest.mark.parametrize("density", [0.004, 0.19, 0.93])
@pytest.mark.parametrize("backend", list_backends())
def test_or_and_backends_agree_across_densities(backend, density):
    # GTC's Leyzorek iterates span these densities; every backend, the
    # packed dense kernel included, gives boolean matrix product's bits.
    rng = np.random.default_rng(int(density * 1000))
    a = rng.random((130, 150)) < density
    b = rng.random((150, 140)) < density
    c = rng.random((130, 140)) < density / 2
    want = ((a.astype(np.int64) @ b.astype(np.int64)) > 0) | c
    got, _ = mmo_tiled("or-and", a, b, c, backend=backend)
    assert got.dtype == np.dtype(bool)
    np.testing.assert_array_equal(got, want)


def test_no_accumulator_launch_allocates_little_beyond_its_output():
    # Without C the vectorized launch fills its output with the ⊕ identity
    # once and returns it uncropped: no identity accumulator, no padded
    # copy of it, no re-cast inside the kernel, no copy of the result.
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 4.0, (1024, 48))
    b = rng.uniform(0.0, 4.0, (48, 1024))
    mmo_tiled("plus-norm", a, b, backend="vectorized")  # compile and warm up
    tracemalloc.start()
    try:
        out, _ = mmo_tiled("plus-norm", a, b, backend="vectorized")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


@pytest.mark.parametrize(
    "name, backend",
    [
        (name, backend)
        for backend in list_backends()
        for name in ("plus-mul", "plus-norm")
        if capabilities_of(get_backend(backend)).supports(name, has_accumulator=True)
    ],
)
def test_certified_plus_launches_agree_across_backends(name, backend, monkeypatch):
    # Operands on a 1/16 grid certify, so the vectorized kernel folds them
    # with one sgemm; every backend must give the reference's bits, with
    # and without C, on- and off-tile shapes (emulate on the smallest).  C
    # is on the grid too: the emulated unit starts its fold from C, which
    # rounds otherwise.
    sgemm = []
    real = ops._sgemm
    monkeypatch.setattr(ops, "_sgemm", lambda *args: sgemm.append(1) or real(*args))
    shapes = [(20, 24, 18)] + ([] if backend == "emulate" else [(32, 40, 48), (37, 45, 29)])
    for m, k, n in shapes:
        rng = np.random.default_rng([m, k, n])
        a = rng.integers(-128, 129, (m, k)) / 16
        b = rng.integers(-128, 129, (k, n)) / 16
        c = rng.integers(-64, 65, (m, n)) / 16
        c[:2] = -0.0
        a[:2] = 0.0  # rows of zero folds, where C holds -0.0
        for acc in (None, c):
            got, _ = mmo_tiled(name, a, b, acc, backend=backend)
            want = mmo_reference(name, a, b, acc)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    if backend == "vectorized":
        assert len(sgemm) == 2 * len(shapes)


def test_certified_launch_allocates_little_beyond_its_output(monkeypatch):
    # The certified twin of the test above: knn_wide's points lie on a 1/16
    # grid, so this launch runs as one sgemm, which must write the output
    # in place.  A second (m, n) temporary would cost knn_wide 64 MB.
    a = uniform_points(PointCloudSpec(1024, 48, seed=5))
    b = uniform_points(PointCloudSpec(1024, 48, seed=6)).T
    sgemm = []
    real = ops._sgemm
    monkeypatch.setattr(ops, "_sgemm", lambda *args: sgemm.append(1) or real(*args))
    mmo_tiled("plus-norm", a, b, backend="vectorized")  # compile and warm up
    tracemalloc.start()
    try:
        out, _ = mmo_tiled("plus-norm", a, b, backend="vectorized")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sgemm == [1, 1]
    assert peak < 2 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


def test_aligned_accumulator_launch_copies_c_once():
    # An aligned fp32 C needs no padding, so plan_mmo hands it on as it is
    # and the kernel's own cast is the one copy of it.
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 4.0, (768, 64))
    b = rng.uniform(0.0, 4.0, (64, 768))
    c = rng.uniform(0.0, 8.0, (768, 768)).astype(np.float32)
    mmo_tiled("min-plus", a, b, c, backend="vectorized")  # compile and warm up
    tracemalloc.start()
    try:
        out, _ = mmo_tiled("min-plus", a, b, c, backend="vectorized")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"



class TestBatchedMmoParity:
    @given(ring_names, dims, dims, dims, seeds, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_batched_bit_identical_to_scalar(
        self, name, m, k, n, seed, continuous
    ):
        ring = SEMIRINGS[name]
        a, b = _dense_operands(ring, m, k, n, seed, continuous=continuous)
        batched, s_batched = mmo_tiled(name, a, b, backend="emulate")
        scalar, s_scalar = mmo_tiled(
            name, a, b, backend="emulate",
            device=Simd2Device(sm_count=4, batched_mmo=False),
        )
        np.testing.assert_array_equal(batched, scalar)
        assert batched.dtype == scalar.dtype
        assert s_batched.execution.unit_ops == s_scalar.execution.unit_ops
        assert s_batched.execution.mmos == s_scalar.execution.mmos

    @given(ring_names, seeds, st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_split_k_emulate_backend(self, name, seed, continuous):
        ring = SEMIRINGS[name]
        a, b = _dense_operands(ring, 17, 50, 9, seed, continuous=continuous)
        expected, _ = mmo_tiled(name, a, b)
        got, stats_list = mmo_tiled_split_k(
            name, a, b, splits=3, backend="emulate"
        )
        if continuous and ring.oplus is np.add:
            # Split-k reassociates the k-reduction into partials; float +
            # is only approximately associative, so plus-based rings on
            # continuous operands match to rounding, not bit-exactly.  The
            # atol covers near-zero outputs from catastrophic cancellation,
            # where relative error is unbounded by construction.
            np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)
        else:
            np.testing.assert_array_equal(got, expected)
        assert len(stats_list) == 3
        for stats in stats_list:
            assert stats.execution is not None  # each split really emulated
            assert stats.execution.mmos == stats.mmo_instructions


class TestSpgemmParity:
    @given(
        ring_names, dims, dims, dims,
        st.sampled_from([0.05, 0.2, 0.5, 0.9]), seeds, st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_vectorized_bit_identical_to_reference(
        self, name, m, k, n, density, seed, continuous
    ):
        ring = SEMIRINGS[name]
        a, b = _sparse_operands(
            ring, m, k, n, density, seed, continuous=continuous
        )
        got, stats = spgemm(name, a, b)
        ref, ref_stats = spgemm_reference(name, a, b)
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)
        assert got.data.dtype == ref.data.dtype
        assert stats == ref_stats

    @given(ring_names, seeds, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_keep_identity_parity(self, name, seed, continuous):
        ring = SEMIRINGS[name]
        a, b = _sparse_operands(
            ring, 12, 12, 12, 0.5, seed, continuous=continuous
        )
        got, _ = spgemm(name, a, b, keep_identity=True)
        ref, _ = spgemm_reference(name, a, b, keep_identity=True)
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)

    def test_long_segment_fold_order_regression(self):
        """Regression: ``np.add.reduceat`` reduces segments longer than 8
        pairwise, which silently broke bit-parity with the scalar left fold
        for plus-based rings.  Dense-ish continuous-float operands force
        many >8-contribution columns through the merge.
        """
        for name in ("plus-mul", "plus-norm", "min-plus", "max-plus"):
            a, b = _sparse_operands(
                SEMIRINGS[name], 30, 60, 45, 0.6, seed=7, continuous=True
            )
            got, stats = spgemm(name, a, b)
            ref, ref_stats = spgemm_reference(name, a, b)
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.data, ref.data)
            assert stats == ref_stats
