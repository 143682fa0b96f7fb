"""Host-side runtime driver — the paper's Figure 7 workflow as an API.

The SIMD² programming model keeps a host program in charge: allocate
device buffers, move data, launch matrix kernels, interleave scalar/vector
kernels (convergence checks), and read results back.  :class:`HostRuntime`
packages that workflow over the emulated device and records an *event
timeline* (malloc/memcpy/launch/check) so tests and examples can assert
the exact host-device interaction pattern — e.g. that a convergence-
checked closure performs no extra device↔host transfers between the mmo
and the check, the data-movement property the paper highlights.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.hw.device import Simd2Device
from repro.runtime.closure import ClosureResult, closure
from repro.runtime.context import ExecutionContext, resolve_context
from repro.runtime.kernels import KernelStats, mmo_tiled

__all__ = ["HostEvent", "HostRuntime"]


@dataclasses.dataclass(frozen=True)
class HostEvent:
    """One entry of the host-device interaction timeline."""

    kind: str  # malloc | memcpy_h2d | memcpy_d2h | mmo_launch | check | free
    detail: str


class HostRuntime:
    """Drives SIMD² computations on a device, logging every host step."""

    def __init__(
        self,
        device: Simd2Device | None = None,
        *,
        backend: str | None = None,
        context: ExecutionContext | None = None,
    ):
        # Device-centric API: the legacy default backend stays "emulate"
        # unless an explicit backend or context says otherwise.
        if context is None:
            context = ExecutionContext(backend="emulate")
        if device is None:
            device = (
                context.device if context.device is not None
                else Simd2Device(sm_count=4)
            )
        self.device = device
        # The context carries the device unconditionally; backends that do
        # not emulate hardware simply ignore it (this replaces the old
        # per-call-site "device only when emulating" branching).
        self.context = resolve_context(context, backend=backend, device=device)
        self.backend = self.context.backend
        self.events: list[HostEvent] = []

    # ------------------------------------------------------------------
    def _log(self, kind: str, detail: str) -> None:
        self.events.append(HostEvent(kind, detail))

    def event_kinds(self) -> list[str]:
        return [event.kind for event in self.events]

    # ------------------------------------------------------------------
    # buffer management (cudaMalloc / cudaMemcpy analogues)
    # ------------------------------------------------------------------
    def upload(self, name: str, host_array: np.ndarray, dtype=np.float32) -> None:
        """malloc + memcpy H2D."""
        host_array = np.asarray(host_array)
        self.device.malloc(name, host_array.shape, dtype)
        self._log("malloc", f"{name}{host_array.shape}")
        self.device.memcpy_h2d(name, host_array)
        self._log("memcpy_h2d", name)

    def download(self, name: str) -> np.ndarray:
        self._log("memcpy_d2h", name)
        return self.device.memcpy_d2h(name)

    def free(self, name: str) -> None:
        self.device.free(name)
        self._log("free", name)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def run_mmo(
        self,
        ring: Semiring | str,
        a_name: str,
        b_name: str,
        c_name: str | None,
        out_name: str,
    ) -> KernelStats:
        """One whole-matrix mmo over named device buffers."""
        ring = get_semiring(ring)
        a = self.device.global_memory[a_name]
        b = self.device.global_memory[b_name]
        c = None if c_name is None else self.device.global_memory[c_name]
        result, stats = mmo_tiled(ring, a, b, c, context=self.context)
        if out_name not in self.device.global_memory:
            self.device.malloc(out_name, result.shape, result.dtype)
            self._log("malloc", f"{out_name}{result.shape}")
        self.device.global_memory[out_name][...] = result
        self._log("mmo_launch", f"{ring.name}: {a_name}x{b_name}->{out_name}")
        return stats

    def run_closure(
        self,
        ring: Semiring | str,
        adjacency_name: str,
        *,
        method: str = "leyzorek",
        convergence_check: bool = True,
        max_iterations: int | None = None,
    ) -> ClosureResult:
        """The Figure 7 loop over a named device buffer.

        Runs :func:`~repro.runtime.closure.closure` on the buffer under
        this runtime's context — so the host takes the library's
        semantics: the iterate is cast to the ring's output dtype before
        the first launch, and a NaN fixpoint counts as a fixpoint — then
        leaves the final matrix in the adjacency buffer (in the buffer's
        own dtype) and logs one ``mmo_launch`` per iteration, each
        followed by a ``check`` when the convergence check ran.
        """
        ring = get_semiring(ring)
        dist = self.device.global_memory[adjacency_name]
        result = closure(
            ring, dist,
            method=method, convergence_check=convergence_check,
            max_iterations=max_iterations, context=self.context,
        )
        dist[...] = result.matrix
        for step in range(result.iterations):
            self._log("mmo_launch", f"{ring.name} closure step {step}")
            if step < result.convergence_checks:
                self._log("check", f"convergence after step {step + 1}")
        return result
