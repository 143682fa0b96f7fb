"""The instruction-level backend: warp programs on the emulated device.

Executes one compiled Table-3 warp program per output tile: the
:class:`~repro.compile.artifact.CompiledMmo` artifact carries the
optimised program and the shared-memory layout (``c_addr``/``d_addr``/
``shared_bytes``/element types), so a relaunch of the same tile grid
stages fresh operand panels but rebuilds nothing — the compile/execute
split of the paper's programming model.  Dynamic instruction counters are
cross-checked against the static tiling prediction, the paper's
statistics validation between its two emulation backends (Section 5.1).

The device comes from the execution context; when the context carries
none, one default 4-SM device is created on first use and reused across
launches instead of being reconstructed per launch.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.backends.base import BackendCapabilities, register_backend
from repro.backends.tiling import plan_mmo
from repro.compile.artifact import CompiledMmo
from repro.core.tiles import TILE
from repro.hw.device import Simd2Device, WarpWorkItem
from repro.hw.shared_memory import SharedMemory
from repro.runtime.api import RuntimeError_
from repro.runtime.context import ExecutionContext
from repro.runtime.kernels import KernelStats

__all__ = ["EmulateBackend"]

_TILE_ELEMS = TILE * TILE


def _check_emulation_parity(stats: KernelStats) -> None:
    """Assert the emulator issued exactly the statically predicted counts.

    This is the paper's statistics cross-check between the validation and
    performance-emulation backends.  The generated Figure-6 program is
    already optimal (the optimiser removes nothing from it), so the
    static prediction holds for the optimised program too.
    """
    execution = stats.execution
    assert execution is not None
    if (
        execution.mmos != stats.mmo_instructions
        or execution.loads != stats.load_instructions
        or execution.stores != stats.store_instructions
        or execution.unit_ops != stats.unit_ops
    ):
        raise RuntimeError_(
            "emulation statistics diverge from the static tiling prediction: "
            f"{execution} vs {stats}"
        )


class EmulateBackend:
    """Whole-matrix mmo through per-tile warp programs on emulated SMs."""

    name = "emulate"
    # Not thread_safe: launches without an explicit device share the
    # lazily-created default Simd2Device, whose staged shared memory is
    # per-instance state.
    capabilities = BackendCapabilities(thread_safe=False)

    def __init__(self) -> None:
        self._default_device: Simd2Device | None = None

    def _device_for(self, context: ExecutionContext) -> Simd2Device:
        if context.device is not None:
            return context.device
        if self._default_device is None:
            self._default_device = Simd2Device(sm_count=4)
        return self._default_device

    def execute(
        self,
        compiled: CompiledMmo,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None,
        *,
        context: ExecutionContext,
    ) -> tuple[np.ndarray, KernelStats]:
        semiring = compiled.opcode.semiring
        plan = plan_mmo(semiring, a, b, c)
        a_pad, b_pad = plan.a_pad, plan.b_pad
        tiles_m, tiles_n, tiles_k = plan.tiles_m, plan.tiles_n, plan.tiles_k
        stats = plan.stats

        device = self._device_for(context)
        program = compiled.program
        c_addr, d_addr = compiled.c_addr, compiled.d_addr
        in_etype, out_etype = compiled.in_etype, compiled.out_etype
        shared_bytes = compiled.shared_bytes

        # Stage each A row-panel and each B col-panel ONCE, pre-converted to
        # the shared-memory element format and laid out tile-major exactly as
        # the warp program expects (tile kk of the A panel at element kk*256,
        # tile kk of the B panel at (tiles_k + kk)*256).  The panels are then
        # shared across the whole tile grid instead of being re-converted per
        # output tile.  Row-major flattening of the (tiles_k*TILE, TILE)
        # panel shape is precisely that tile-major layout.
        in_dtype = SharedMemory.dtype_for(in_etype)
        out_dtype = SharedMemory.dtype_for(out_etype)
        a_panels = [
            a_pad[ti * TILE : (ti + 1) * TILE]
            .reshape(TILE, tiles_k, TILE)
            .transpose(1, 0, 2)
            .reshape(tiles_k * TILE, TILE)
            .astype(in_dtype)
            for ti in range(tiles_m)
        ]
        b_panels = [
            b_pad[:, tj * TILE : (tj + 1) * TILE].astype(in_dtype)
            for tj in range(tiles_n)
        ]
        # Without C every tile's accumulator is the ⊕ identity: a broadcast
        # view, so no padded accumulator is materialised.
        c_conv = (
            np.broadcast_to(
                np.asarray(semiring.oplus_identity, out_dtype),
                (tiles_m * TILE, tiles_n * TILE),
            )
            if plan.c_pad is None
            else plan.c_pad.astype(out_dtype, copy=False)
        )

        work_items: list[tuple[int, int, SharedMemory]] = []
        items: list[WarpWorkItem] = []
        for ti in range(tiles_m):
            for tj in range(tiles_n):
                shm = SharedMemory(shared_bytes)
                shm.write_matrix(0, a_panels[ti], in_etype)
                shm.write_matrix(tiles_k * _TILE_ELEMS, b_panels[tj], in_etype)
                c_tile = c_conv[
                    ti * TILE : (ti + 1) * TILE, tj * TILE : (tj + 1) * TILE
                ]
                shm.write_matrix(c_addr, c_tile, out_etype)
                work_items.append((ti, tj, shm))
                items.append(WarpWorkItem(program, shm))

        execution = device.launch(items)
        d_pad = np.empty((tiles_m * TILE, tiles_n * TILE), semiring.output_dtype)
        for ti, tj, shm in work_items:
            d_tile = shm.read_matrix(d_addr, (TILE, TILE), out_etype)
            d_pad[ti * TILE : (ti + 1) * TILE, tj * TILE : (tj + 1) * TILE] = d_tile

        stats = dataclasses.replace(stats, execution=execution)
        _check_emulation_parity(stats)
        return plan.crop(d_pad), stats


register_backend(EmulateBackend())
