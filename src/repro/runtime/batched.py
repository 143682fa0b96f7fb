"""Batched tensor operations over SIMD² semirings.

The paper's title is about *tensor* computation beyond GEMM: real
workloads rarely ship one matrix at a time.  :func:`batched_mmo` runs
``D[i] = C[i] ⊕ (A[i] ⊗ B[i])`` over stacked operands with NumPy-style
batch broadcasting (a single matrix broadcasts across the batch), mapping
each batch element onto the tiled kernel — which is exactly how a batched
wmma kernel schedules tile grids back to back on the same units.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.compile.lower import resolve_opcode
from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.hw.device import Simd2Device
from repro.isa.opcodes import MmoOpcode
from repro.runtime.api import RuntimeError_
from repro.runtime.context import ExecutionContext, resolve_context
from repro.runtime.kernels import KernelStats, _validate_ring_inputs

__all__ = ["BatchStats", "batched_mmo"]


@dataclasses.dataclass(frozen=True)
class BatchStats:
    """Aggregated statistics of a batched mmo."""

    batch: int
    per_item: tuple[KernelStats, ...]

    @property
    def mmo_instructions(self) -> int:
        return sum(stats.mmo_instructions for stats in self.per_item)

    @property
    def warp_programs(self) -> int:
        return sum(stats.warp_programs for stats in self.per_item)

    @property
    def unit_ops(self) -> int:
        return sum(stats.unit_ops for stats in self.per_item)


def _as_batched(name: str, array: np.ndarray, batch: int | None) -> tuple[np.ndarray, int | None]:
    array = np.asarray(array)
    if array.ndim == 2:
        return array[None, ...], batch
    if array.ndim != 3:
        raise RuntimeError_(
            f"{name} must be a matrix or a stack of matrices, got shape {array.shape}"
        )
    if batch is None:
        return array, array.shape[0]
    if array.shape[0] not in (1, batch):
        raise RuntimeError_(
            f"{name} batch {array.shape[0]} does not broadcast to {batch}"
        )
    return array, max(batch, array.shape[0])


def batched_mmo(
    ring: Semiring | str | MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    backend: str | None = None,
    device: Simd2Device | None = None,
    context: ExecutionContext | None = None,
    validate_inputs: bool = True,
) -> tuple[np.ndarray, BatchStats]:
    """``D[i] = C[i] ⊕ (A[i] ⊗ B[i])`` with batch broadcasting.

    ``a``/``b``/``c`` may be 3-D stacks ``(batch, rows, cols)`` or single
    2-D matrices (broadcast across the batch).  Ring-input poison
    validation runs once over the whole stack up front (disabled on the
    per-item launches); ``validate_inputs=False`` opts out, as on
    :func:`~repro.runtime.kernels.mmo_tiled`.  Returns the stacked result
    and per-item kernel statistics.
    """
    if isinstance(ring, MmoOpcode):
        ring = ring.semiring
    ring = get_semiring(ring)
    # Resolve once so an unknown backend fails before any batch item runs.
    ctx = resolve_context(context, backend=backend, device=device)

    batch: int | None = None
    for name, operand in (("A", a), ("B", b)) + ((("C", c),) if c is not None else ()):
        arr = np.asarray(operand)
        if arr.ndim == 3:
            if batch is None:
                batch = arr.shape[0]
            elif arr.shape[0] not in (1, batch):
                if batch == 1:
                    batch = arr.shape[0]
                else:
                    raise RuntimeError_(
                        f"{name} batch {arr.shape[0]} conflicts with batch {batch}"
                    )
            else:
                batch = max(batch, arr.shape[0])
    if batch is None:
        batch = 1

    a3, _ = _as_batched("A", a, batch)
    b3, _ = _as_batched("B", b, batch)
    c3 = None
    if c is not None:
        c3, _ = _as_batched("C", c, batch)
    # One up-front poison check over the whole stack: NaN (and the
    # oppositely-signed infinity on min-plus/max-plus) fails here naming
    # the operand, not deep inside batch item 17.  Per-item launches skip
    # the check — one scan, not one per batch element.
    if validate_inputs:
        _validate_ring_inputs(ring, a3, b3, c3)

    # Every batch item has the same (m, n, k) — stacks are uniform — so one
    # compiled artifact serves the whole batch (the graph builder's
    # ArtifactPool compiles it once and replays it per launch).  The items
    # are independent launches, so a thread-pool scheduler on the
    # context runs them concurrently with bit-identical results.
    # Lazy: repro.sched orchestrates this module's loops.
    from repro.sched.builders import batched_graph
    from repro.sched.executor import resolve_scheduler

    graph = batched_graph(ctx, resolve_opcode(ring), a3, b3, c3, batch)
    result = resolve_scheduler(ctx).run(graph, context=ctx)
    return np.stack(result.outputs), BatchStats(batch=batch, per_item=result.stats)
