"""Tests for multi-device work partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import mmo
from repro.hw import Simd2Device
from repro.runtime import RuntimeError_
from repro.runtime.multidevice import mmo_tiled_multi_device
from tests.conftest import make_ring_inputs


def _devices(count: int) -> list[Simd2Device]:
    return [Simd2Device(sm_count=2) for _ in range(count)]


class TestPartitioning:
    def test_matches_single_device(self, ring, rng):
        a, b, c = make_ring_inputs(ring, 48, 20, 24, rng)
        devices = _devices(3)
        got, shares = mmo_tiled_multi_device(ring, a, b, c, devices=devices)
        np.testing.assert_array_equal(got, mmo(ring, a, b, c))
        assert len(shares) == 3

    def test_bands_are_tile_aligned_and_cover(self, rng):
        from repro.core import SEMIRINGS

        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 50, 16, 16, rng)
        got, shares = mmo_tiled_multi_device(
            "min-plus", a, b, c, devices=_devices(2)
        )
        assert shares[0].row_start == 0
        assert shares[0].row_stop % 16 == 0
        assert shares[-1].row_stop == 50
        covered = sum(share.rows for share in shares)
        assert covered == 50
        np.testing.assert_array_equal(got, mmo("min-plus", a, b, c))

    def test_every_device_did_work(self, rng):
        from repro.core import SEMIRINGS

        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 64, 16, 16, rng, with_c=False)
        devices = _devices(4)
        _, shares = mmo_tiled_multi_device("min-plus", a, b, devices=devices)
        assert len(shares) == 4
        for share, device in zip(shares, devices):
            assert device.stats.mmos == share.stats.mmo_instructions
            assert device.stats.mmos > 0

    def test_more_devices_than_tiles(self, rng):
        from repro.core import SEMIRINGS

        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False)
        got, shares = mmo_tiled_multi_device(
            "min-plus", a, b, devices=_devices(5)
        )
        assert len(shares) == 1  # one row tile → one busy device
        np.testing.assert_array_equal(got, mmo("min-plus", a, b))

    def test_vectorized_backend(self, rng):
        from repro.core import SEMIRINGS

        a, b, c = make_ring_inputs(SEMIRINGS["max-plus"], 33, 10, 12, rng)
        got, _ = mmo_tiled_multi_device(
            "max-plus", a, b, c, devices=_devices(2), backend="vectorized"
        )
        np.testing.assert_array_equal(got, mmo("max-plus", a, b, c))


class TestValidation:
    def test_no_devices(self):
        with pytest.raises(RuntimeError_, match="at least one device"):
            mmo_tiled_multi_device("mma", np.zeros((2, 2)), np.zeros((2, 2)), devices=[])

    def test_shape_mismatch(self):
        with pytest.raises(RuntimeError_, match="bad mmo operand shapes"):
            mmo_tiled_multi_device(
                "mma", np.zeros((2, 3)), np.zeros((2, 3)), devices=_devices(1)
            )

    def test_bad_accumulator(self):
        with pytest.raises(RuntimeError_, match="accumulator shape"):
            mmo_tiled_multi_device(
                "mma",
                np.zeros((2, 3)),
                np.zeros((3, 2)),
                np.zeros((3, 3)),
                devices=_devices(1),
            )


class TestResilienceEdges:
    """Edge cases of blacklist-driven repartitioning."""

    def test_all_blacklisted_raises(self, rng):
        from repro.core import SEMIRINGS

        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 16, rng, with_c=False)
        with pytest.raises(RuntimeError_, match="no surviving devices"):
            mmo_tiled_multi_device(
                "min-plus", a, b, devices=_devices(2), blacklist={0, 1}
            )

    def test_single_survivor_carries_all_rows(self, rng):
        from repro.core import SEMIRINGS

        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 48, 16, 24, rng)
        devices = _devices(3)
        got, shares = mmo_tiled_multi_device(
            "min-plus", a, b, c, devices=devices, blacklist={0, 1}
        )
        np.testing.assert_array_equal(got, mmo("min-plus", a, b, c))
        assert [sh.device_index for sh in shares] == [2]
        assert shares[0].rows == 48

    def test_repartitioned_parity_all_rings(self, ring, rng):
        """Bit-identical reassembly: a run that loses a device mid-flight
        must equal the single-device result on every opcode."""
        from repro.resilience import FaultPlan
        from repro.runtime import use_context

        a, b, c = make_ring_inputs(ring, 48, 20, 24, rng)
        plan = FaultPlan(fail_devices=(1,))
        blacklist: set[int] = set()
        with use_context(backend="emulate", fault_plan=plan) as ctx:
            got, shares = mmo_tiled_multi_device(
                ring, a, b, c, devices=_devices(3), context=ctx,
                on_device_failure="repartition", blacklist=blacklist,
            )
        np.testing.assert_array_equal(got, mmo(ring, a, b, c))
        assert blacklist == {1}
        assert sorted(sh.device_index for sh in shares) == [0, 2]

    def test_abort_mode_propagates_device_failure(self, rng):
        from repro.core import SEMIRINGS
        from repro.resilience import DeviceFailure, FaultPlan
        from repro.runtime import use_context

        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 16, rng, with_c=False)
        plan = FaultPlan(fail_devices=(0,))
        with use_context(backend="emulate", fault_plan=plan) as ctx:
            with pytest.raises(DeviceFailure, match="device 0 failed"):
                mmo_tiled_multi_device(
                    "min-plus", a, b, devices=_devices(2), context=ctx
                )

    def test_bad_on_device_failure_rejected(self, rng):
        with pytest.raises(RuntimeError_, match="on_device_failure"):
            mmo_tiled_multi_device(
                "mma", np.zeros((2, 2)), np.zeros((2, 2)),
                devices=_devices(1), on_device_failure="shrug",
            )

    def test_checked_bands_catch_injected_corruption(self, rng):
        from repro.core import SEMIRINGS
        from repro.resilience import FaultPlan, FaultSpec, Recovery
        from repro.runtime import Trace, use_context

        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 48, 16, 48, rng)
        trace = Trace()
        plan = FaultPlan(seed=4, corrupt={0: FaultSpec(kind="nan")})
        with use_context(
            backend="emulate", fault_plan=plan, trace=trace, recovery=Recovery()
        ) as ctx:
            got, _ = mmo_tiled_multi_device(
                "min-plus", a, b, c, devices=_devices(2), context=ctx,
            )
        np.testing.assert_array_equal(got, mmo("min-plus", a, b, c))
        assert trace.summary().corruptions_detected >= 1
        assert trace.summary().retries >= 1

    def test_recovery_with_a_fallback_chain_is_rejected(self, rng):
        # Bands recover by retry and repartition; a context recovery that
        # would fall back across backends is refused before any band runs.
        from repro.core import SEMIRINGS
        from repro.resilience import (
            FallbackChain, FaultPlan, Recovery, ResilienceError,
        )
        from repro.runtime import use_context

        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng)
        plan = FaultPlan()
        chain = FallbackChain(backends=("emulate", "vectorized"))
        with use_context(
            backend="emulate", fault_plan=plan, recovery=Recovery(fallback=chain)
        ) as ctx:
            with pytest.raises(ResilienceError, match="devices=.*fallback="):
                mmo_tiled_multi_device(
                    "min-plus", a, b, c, devices=_devices(2), context=ctx
                )
        assert plan.launches_seen == 0
