"""SM occupancy: how many warps a SIMD² kernel can keep resident.

The emulator gives every warp its own scratchpad; real SMs bound resident
warps by shared-memory and register-file capacity, and occupancy bounds
how well the SIMD² units' latency is hidden.  This module computes the
classic occupancy calculation for tile kernels:

- shared memory per warp: operand panels + C/D tiles (exactly what
  :func:`repro.compile.lower.build_tile_mmo_program` stages),
- matrix registers per warp: what the program actually uses,

against an SM budget, and reports the limiting resource.  The timing
model's tile-pipeline utilisation factor assumes enough resident warps to
cover unit latency; :func:`occupancy_utilization` quantifies when that
assumption breaks (very deep k panels exhaust shared memory).
"""

from __future__ import annotations

import dataclasses

from repro.core.tiles import TILE
from repro.hw.errors import HardwareError
from repro.isa.opcodes import ElementType
from repro.isa.program import Program

__all__ = ["SmBudget", "OccupancyReport", "kernel_occupancy", "occupancy_utilization"]

_TILE_ELEMS = TILE * TILE


@dataclasses.dataclass(frozen=True)
class SmBudget:
    """Per-SM resources relevant to warp residency (Ampere-class)."""

    shared_memory_bytes: int = 100 * 1024
    matrix_registers: int = 512  # fragment registers across resident warps
    max_warps: int = 48

    def __post_init__(self) -> None:
        if min(self.shared_memory_bytes, self.matrix_registers, self.max_warps) <= 0:
            raise HardwareError("SM budget fields must be positive")


@dataclasses.dataclass(frozen=True)
class OccupancyReport:
    """Residency outcome for one kernel on one SM."""

    warps_resident: int
    limited_by: str  # "shared-memory" | "registers" | "warp-slots"
    shared_bytes_per_warp: int
    registers_per_warp: int

    @property
    def occupancy(self) -> float:
        return self.warps_resident  # absolute count; fraction needs a budget


def tile_kernel_shared_bytes(tiles_k: int, *, boolean: bool) -> int:
    """Scratchpad bytes one Figure-6 warp program stages."""
    if tiles_k <= 0:
        raise HardwareError(f"tiles_k must be positive, got {tiles_k}")
    in_bytes = 1 if boolean else 2
    out_bytes = 1 if boolean else 4
    return in_bytes * 2 * tiles_k * _TILE_ELEMS + out_bytes * 2 * _TILE_ELEMS


def kernel_occupancy(
    program: Program,
    *,
    tiles_k: int,
    boolean: bool = False,
    budget: SmBudget = SmBudget(),
) -> OccupancyReport:
    """Resident warps for a tile program under an SM budget."""
    shared_per_warp = tile_kernel_shared_bytes(tiles_k, boolean=boolean)
    registers_per_warp = max(1, len(program.registers_used()))
    by_shared = budget.shared_memory_bytes // shared_per_warp
    by_registers = budget.matrix_registers // registers_per_warp
    warps = min(by_shared, by_registers, budget.max_warps)
    if warps <= 0:
        raise HardwareError(
            f"kernel needs {shared_per_warp} shared bytes per warp; the SM "
            f"has only {budget.shared_memory_bytes}"
        )
    if warps == by_shared and by_shared <= min(by_registers, budget.max_warps):
        limited = "shared-memory"
    elif warps == by_registers and by_registers <= budget.max_warps:
        limited = "registers"
    else:
        limited = "warp-slots"
    return OccupancyReport(
        warps_resident=warps,
        limited_by=limited,
        shared_bytes_per_warp=shared_per_warp,
        registers_per_warp=registers_per_warp,
    )


def occupancy_utilization(
    report: OccupancyReport, *, warps_to_cover_latency: int = 8
) -> float:
    """Fraction of unit latency hidden by the resident warps.

    With ``w`` resident warps and ``w*`` needed for full latency hiding,
    utilisation ≈ min(1, w / w*) — the standard throughput model.
    """
    if warps_to_cover_latency <= 0:
        raise HardwareError("warps_to_cover_latency must be positive")
    return min(1.0, report.warps_resident / warps_to_cover_latency)
