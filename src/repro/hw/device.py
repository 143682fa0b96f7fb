"""Device-level emulator: SMs + global memory + kernel dispatch.

:class:`Simd2Device` plays the role of the GPU in the paper's emulation
framework: the host program allocates device buffers, copies data in,
launches tile kernels (lists of warp work-items), and copies results out.
The device spreads warps across SMs round-robin and aggregates statistics,
which the validation flow (paper Section 5.1) compares against predicted
instruction counts and the timing model converts into cycles.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hw.errors import HardwareError, MemoryFault
from repro.hw.shared_memory import SharedMemory
from repro.hw.sm import StreamingMultiprocessor
from repro.hw.warp import ExecutionStats
from repro.isa.program import Program

__all__ = ["WarpWorkItem", "Simd2Device"]


@dataclasses.dataclass
class WarpWorkItem:
    """One warp's work: a program plus the scratchpad it runs against."""

    program: Program
    shared_memory: SharedMemory


class Simd2Device:
    """A GPU-like device populated with SIMD² units."""

    def __init__(
        self,
        *,
        sm_count: int = 4,
        baseline_only: bool = False,
        batched_mmo: bool = True,
    ):
        if sm_count <= 0:
            raise HardwareError(f"sm_count must be positive, got {sm_count}")
        self.sms = [
            StreamingMultiprocessor(
                sm_id=i, baseline_only=baseline_only, batched_mmo=batched_mmo
            )
            for i in range(sm_count)
        ]
        self.global_memory: dict[str, np.ndarray] = {}
        self.stats = ExecutionStats()
        self.kernel_launches = 0

    # ------------------------------------------------------------------
    # global-memory management (cudaMalloc / cudaMemcpy analogues)
    # ------------------------------------------------------------------
    def malloc(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Allocate a named device buffer (zero-initialised)."""
        if name in self.global_memory:
            raise MemoryFault(f"buffer {name!r} already allocated")
        buffer = np.zeros(shape, dtype=dtype)
        self.global_memory[name] = buffer
        return buffer

    def memcpy_h2d(self, name: str, host_array: np.ndarray) -> None:
        """Copy host data into a device buffer (shapes must match)."""
        buffer = self._buffer(name)
        host_array = np.asarray(host_array)
        if host_array.shape != buffer.shape:
            raise MemoryFault(
                f"h2d shape mismatch for {name!r}: host {host_array.shape}, "
                f"device {buffer.shape}"
            )
        buffer[...] = host_array.astype(buffer.dtype)

    def memcpy_d2h(self, name: str) -> np.ndarray:
        """Copy a device buffer back to the host (returns a copy)."""
        return self._buffer(name).copy()

    def free(self, name: str) -> None:
        self._buffer(name)
        del self.global_memory[name]

    def _buffer(self, name: str) -> np.ndarray:
        try:
            return self.global_memory[name]
        except KeyError:
            raise MemoryFault(f"no device buffer named {name!r}") from None

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------
    def launch(self, work_items: list[WarpWorkItem]) -> ExecutionStats:
        """Run a kernel: dispatch warps across SMs round-robin."""
        launch_stats = ExecutionStats()
        for index, item in enumerate(work_items):
            launch_stats.merge(
                self.sms[index % len(self.sms)].execute_warp(
                    item.program, item.shared_memory
                )
            )
        self.stats.merge(launch_stats)
        self.kernel_launches += 1
        return launch_stats

    # ------------------------------------------------------------------
    @property
    def unit_ops(self) -> int:
        return sum(sm.unit_ops for sm in self.sms)

    def reset(self) -> None:
        """Clear statistics and counters (keeps global memory)."""
        self.stats = ExecutionStats()
        self.kernel_launches = 0
        for sm in self.sms:
            sm.reset()
