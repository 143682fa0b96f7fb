"""Tests for semiring-generalised ABFT checksums."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SEMIRINGS, Semiring, mmo
from repro.resilience import (
    ChecksumUnsupported,
    CorruptionDetected,
    FaultPlan,
    FaultSpec,
    Recovery,
    RetryPolicy,
    mmo_checksums,
)
from repro.runtime import Trace, mmo_tiled, use_context


def nonneg_inputs(
    ring: Semiring,
    m: int,
    k: int,
    n: int,
    rng: np.random.Generator,
    *,
    with_c: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Ring inputs restricted to values every checksum supports.

    min-mul/max-mul checksums require non-negative operands (the
    distributive invariant flips sign under a negative multiplier), so
    unlike ``make_ring_inputs`` these draw from ``[0, 8]``.
    """
    if ring.is_boolean():
        a = rng.random((m, k)) < 0.4
        b = rng.random((k, n)) < 0.4
        c = (rng.random((m, n)) < 0.2) if with_c else None
        return a, b, c
    a = rng.integers(0, 9, size=(m, k)).astype(np.float64)
    b = rng.integers(0, 9, size=(k, n)).astype(np.float64)
    c = rng.integers(0, 9, size=(m, n)).astype(np.float64) if with_c else None
    return a, b, c


class TestSupport:
    def test_plus_norm_is_unsupported(self, rng):
        a = rng.random((16, 16))
        with pytest.raises(ChecksumUnsupported, match="does not distribute"):
            mmo_checksums("plus-norm", a, a)

    @pytest.mark.parametrize("name", ["min-mul", "max-mul"])
    def test_mul_rings_reject_negative_operands(self, name, rng):
        a = rng.integers(-8, 9, (16, 16)).astype(np.float64)
        b = np.abs(a)
        with pytest.raises(ChecksumUnsupported, match="non-negative"):
            mmo_checksums(name, a, b)
        with pytest.raises(ChecksumUnsupported, match="non-negative"):
            mmo_checksums(name, b, a)
        # non-negative operands are fine
        mmo_checksums(name, b, b)

    def test_exactness_flag_tracks_idempotence(self):
        ones = np.ones((8, 8))
        assert mmo_checksums("min-plus", ones, ones).exact
        assert mmo_checksums("or-and", ones > 0, ones > 0).exact
        assert not mmo_checksums("plus-mul", ones, ones).exact


class TestCleanVerification:
    """Zero false positives: every backend's true result passes."""

    @pytest.mark.parametrize("backend", ["vectorized", "emulate", "sparse"])
    def test_all_supported_rings_all_backends(self, ring, backend, rng):
        if ring.name == "plus-norm":
            pytest.skip("plus-norm checksums unsupported (non-distributive)")
        from repro.backends import capabilities_of, get_backend

        if not capabilities_of(get_backend(backend)).supports(
            ring.name, has_accumulator=True
        ):
            pytest.skip(f"backend {backend!r} declares no support for {ring.name}")
        a, b, c = nonneg_inputs(ring, 48, 32, 40, rng)
        sums = mmo_checksums(ring, a, b, c)
        d, _ = mmo_tiled(ring, a, b, c, backend=backend)
        report = sums.verify(d)
        assert report.ok, report.describe()
        assert report.exact == sums.exact
        assert report.suspect_tiles == ()

    def test_no_accumulator(self, ring, rng):
        if ring.name == "plus-norm":
            pytest.skip("plus-norm checksums unsupported (non-distributive)")
        a, b, _ = nonneg_inputs(ring, 32, 16, 32, rng, with_c=False)
        d, _ = mmo_tiled(ring, a, b)
        assert mmo_checksums(ring, a, b).verify(d).ok

    def test_plus_mul_tolerance_absorbs_reassociation(self, rng):
        # Real-valued fp inputs: the additive folds differ from the tiled
        # reduction only by rounding, which rtol must absorb.
        a = rng.uniform(-1, 1, (64, 48)).astype(np.float32)
        b = rng.uniform(-1, 1, (48, 64)).astype(np.float32)
        d, _ = mmo_tiled("plus-mul", a, b)
        report = mmo_checksums("plus-mul", a, b, rtol=1e-3, atol=1e-4).verify(d)
        assert report.ok, report.describe()

    def test_plus_mul_default_tolerance_when_columns_cancel(self, rng):
        # Every column of A sums to about zero, so each expected row-fold
        # lane is tiny while its terms are not: a tolerance relative to
        # the lane's value would flag this clean launch.
        a = rng.standard_normal((128, 64)).astype(np.float16).astype(np.float32)
        a[-1] = -a[:-1].sum(axis=0)
        b = rng.standard_normal((64, 128)).astype(np.float32)
        d, _ = mmo_tiled("plus-mul", a, b)
        report = mmo_checksums("plus-mul", a, b).verify(d)
        assert report.ok, report.describe()


class TestDetection:
    def test_nan_poison_always_detected(self, ring, rng):
        if ring.name == "plus-norm" or ring.is_boolean():
            pytest.skip("no NaN on this ring")
        a, b, c = nonneg_inputs(ring, 48, 16, 48, rng)
        sums = mmo_checksums(ring, a, b, c)
        d, _ = mmo_tiled(ring, a, b, c)
        d = np.array(d)
        d[20, 33] = np.nan
        report = sums.verify(d)
        assert not report.ok
        assert 33 in report.bad_columns
        assert 20 in report.bad_rows

    def test_boolean_flip_detected_on_empty_relation(self, rng):
        a = np.zeros((32, 16), dtype=bool)
        b = np.zeros((16, 32), dtype=bool)
        sums = mmo_checksums("or-and", a, b)
        d, _ = mmo_tiled("or-and", a, b)
        d = np.array(d)
        d[5, 9] = True
        report = sums.verify(d)
        assert not report.ok
        assert report.bad_columns == (9,) and report.bad_rows == (5,)

    def test_suspect_tiles_localise_a_stuck_tile(self, rng):
        a, b, c = nonneg_inputs(SEMIRINGS["min-plus"], 48, 16, 48, rng)
        sums = mmo_checksums("min-plus", a, b, c)
        d, _ = mmo_tiled("min-plus", a, b, c)
        d = np.array(d)
        d[16:32, 32:48] = -50.0  # below every true min: both folds fire
        report = sums.verify(d)
        assert not report.ok
        assert report.suspect_tiles == ((1, 2),)
        assert "suspect tiles" in report.describe()

    def test_additive_deviation_reported(self, rng):
        a = rng.uniform(0, 1, (32, 16)).astype(np.float32)
        b = rng.uniform(0, 1, (16, 32)).astype(np.float32)
        sums = mmo_checksums("plus-mul", a, b)
        d, _ = mmo_tiled("plus-mul", a, b)
        d = np.array(d)
        d[3, 7] += 10.0
        report = sums.verify(d)
        assert not report.ok
        assert report.max_row_deviation == pytest.approx(10.0, rel=1e-3)


#: A checked launch that is never retried: one attempt, then the verdict.
CHECKED_ONCE = Recovery(retry=RetryPolicy(max_retries=0))


class TestCheckedLaunch:
    def test_clean_run_matches_unchecked(self, ring, rng):
        if ring.name == "plus-norm":
            pytest.skip("plus-norm checksums unsupported (non-distributive)")
        a, b, c = nonneg_inputs(ring, 32, 16, 32, rng)
        with use_context(recovery=CHECKED_ONCE) as ctx:
            d, stats = mmo_tiled(ring, a, b, c, context=ctx)
        np.testing.assert_array_equal(d, mmo(ring, a, b, c))
        assert stats.mmo_instructions > 0

    def test_injected_corruption_raises_and_traces(self, rng):
        a, b, c = nonneg_inputs(SEMIRINGS["min-plus"], 48, 16, 48, rng)
        trace = Trace()
        plan = FaultPlan(seed=5, corrupt={0: FaultSpec(kind="stuck", value=-99.0)})
        with use_context(
            backend="vectorized", fault_plan=plan, trace=trace,
            recovery=CHECKED_ONCE,
        ) as ctx:
            with pytest.raises(CorruptionDetected) as excinfo:
                mmo_tiled("min-plus", a, b, c, context=ctx)
        assert not excinfo.value.report.ok
        assert trace.summary().corruptions_detected == 1
        assert trace.summary().faults_injected == 1

    def test_verify_reuses_precomputed_checksums(self, rng):
        a, b, _ = nonneg_inputs(SEMIRINGS["max-min"], 32, 16, 32, rng, with_c=False)
        sums = mmo_checksums("max-min", a, b)
        d, _ = mmo_tiled("max-min", a, b)
        assert sums.verify(d).ok
        d = np.array(d)
        d[:16, :16] = 100.0
        assert not sums.verify(d).ok
        assert sums.verify(np.array(mmo_tiled("max-min", a, b)[0])).ok
