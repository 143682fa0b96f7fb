"""Tests for the SM occupancy model."""

from __future__ import annotations

import pytest

from repro.compile.lower import build_tile_mmo_program
from repro.hw import HardwareError
from repro.hw.occupancy import (
    OccupancyReport,
    SmBudget,
    kernel_occupancy,
    occupancy_utilization,
    tile_kernel_shared_bytes,
)
from repro.isa import MmoOpcode


def _program(tiles_k: int, boolean: bool = False):
    program, _, _ = build_tile_mmo_program(
        MmoOpcode.ORAND if boolean else MmoOpcode.MINPLUS, tiles_k, boolean=boolean
    )
    return program


class TestSharedBytes:
    def test_formula(self):
        # 2 fp16 panels of k tiles + C and D fp32 tiles.
        assert tile_kernel_shared_bytes(3, boolean=False) == 2 * 2 * 3 * 256 + 4 * 2 * 256
        assert tile_kernel_shared_bytes(3, boolean=True) == 1 * 2 * 3 * 256 + 1 * 2 * 256

    def test_bad_tiles_k(self):
        with pytest.raises(HardwareError):
            tile_kernel_shared_bytes(0, boolean=False)


class TestOccupancy:
    def test_shallow_boolean_kernel_is_warp_slot_limited(self):
        # A 1-deep boolean kernel needs only 1 KiB of scratch per warp.
        report = kernel_occupancy(_program(1, boolean=True), tiles_k=1, boolean=True)
        assert report.limited_by == "warp-slots"
        assert report.warps_resident == SmBudget().max_warps

    def test_shallow_numeric_kernel_is_shared_memory_limited(self):
        report = kernel_occupancy(_program(1), tiles_k=1)
        assert report.limited_by == "shared-memory"
        assert report.warps_resident == 100 * 1024 // 3072

    def test_deep_kernel_is_shared_memory_limited(self):
        tiles_k = 64  # 64-tile panels: 66.5 KB per warp
        report = kernel_occupancy(_program(tiles_k), tiles_k=tiles_k)
        assert report.limited_by == "shared-memory"
        assert report.warps_resident == 100 * 1024 // report.shared_bytes_per_warp

    def test_register_limited_budget(self):
        budget = SmBudget(matrix_registers=6)
        report = kernel_occupancy(_program(1), tiles_k=1, budget=budget)
        assert report.limited_by == "registers"
        assert report.warps_resident == 6 // report.registers_per_warp

    def test_boolean_kernels_fit_more_warps(self):
        dense = kernel_occupancy(_program(32), tiles_k=32)
        boolean = kernel_occupancy(_program(32, boolean=True), tiles_k=32, boolean=True)
        assert boolean.warps_resident >= dense.warps_resident

    def test_impossible_kernel_faults(self):
        with pytest.raises(HardwareError, match="shared bytes per warp"):
            kernel_occupancy(
                _program(64), tiles_k=64, budget=SmBudget(shared_memory_bytes=1024)
            )

    def test_bad_budget(self):
        with pytest.raises(HardwareError):
            SmBudget(max_warps=0)


class TestUtilization:
    def test_full_hiding(self):
        report = OccupancyReport(16, "warp-slots", 1024, 3)
        assert occupancy_utilization(report) == 1.0

    def test_partial_hiding(self):
        report = OccupancyReport(2, "shared-memory", 65536, 3)
        assert occupancy_utilization(report) == pytest.approx(0.25)

    def test_bad_latency_parameter(self):
        with pytest.raises(HardwareError):
            occupancy_utilization(OccupancyReport(2, "x", 1, 1), warps_to_cover_latency=0)
