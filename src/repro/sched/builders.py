"""Graph builders: lower the loop-shaped entry points onto LaunchGraphs.

Each builder takes the validated operands of one runtime entry point and
produces a :class:`~repro.sched.graph.LaunchGraph` of independent
launches; the entry point runs it and combines the outputs itself, in
launch order, with :func:`fold_outputs` (split-k) or
:func:`gather_rows` (row bands).  The lowering preserves the observable
behaviour of the hand-rolled loops exactly:

- **cache-hit signatures**: one :class:`ArtifactPool` per entry-point
  call compiles each distinct launch shape once through
  :func:`~repro.runtime.kernels.compile_in_context` and stamps the
  compile call's hit flag on the *first* launch of that shape, ``True``
  on every later one — the one-miss-then-hits trace signature of the
  compile/execute split;
- **fault ordinals** are reserved in launch order by the
  :class:`~repro.sched.graph.GraphBuilder`, at build time;
- **banding** comes from the one shared
  :func:`~repro.backends.tiling.partition_bands` helper (split-k
  partitions the inner dimension, multi-device and banded closure
  partition output rows on 16-row tile boundaries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.compile.lower import resolve_opcode
from repro.core.tiles import TILE
from repro.isa.opcodes import MmoOpcode
from repro.runtime.kernels import compile_in_context
from repro.sched.graph import GraphBuilder, LaunchGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.artifact import CompiledMmo
    from repro.core.semiring import Semiring
    from repro.hw.device import Simd2Device
    from repro.runtime.context import ExecutionContext

__all__ = [
    "ArtifactPool",
    "batched_graph",
    "closure_step_graph",
    "fold_outputs",
    "gather_rows",
    "multidevice_graph",
    "split_k_graph",
]


class ArtifactPool:
    """Compile-once memo shared by every launch of one entry point.

    Wraps the compile seam: the first request for a launch shape lowers
    it through :func:`~repro.runtime.kernels.compile_in_context` (firing
    the post-compile hooks once, touching the plan cache once) and
    reports that compile's cache-hit flag; repeat requests return the
    memoised artifact with ``hit=True`` — the replay signature.  Pools
    outlive a single graph on purpose: a closure loop keeps one pool
    across launches, so the first launch of each shape reports the
    cold-cache miss and every later one a hit, exactly like the
    pre-graph loop.

    The artifact is backend-agnostic, so every context gets one,
    ``backend="auto"`` included (its launches re-plan per replay).  Only
    empty outputs yield ``(None, None)``: nothing is lowered for them,
    and their launches take the empty-output path at dispatch.
    """

    def __init__(self, context: "ExecutionContext", api: str):
        self._context = context
        self._api = api
        self._memo: "dict[tuple[str, int, int, int, bool], CompiledMmo]" = {}

    def artifact(
        self,
        opcode: MmoOpcode,
        m: int,
        n: int,
        k: int,
        *,
        has_accumulator: bool,
    ) -> "tuple[CompiledMmo | None, bool | None]":
        """The artifact for one launch shape plus its launch's cache-hit flag."""
        if m <= 0 or n <= 0:
            return None, None
        key = (opcode.name, m, n, k, has_accumulator)
        compiled = self._memo.get(key)
        if compiled is not None:
            return compiled, True
        compiled, hit = compile_in_context(
            self._context, opcode, m, n, k,
            has_accumulator=has_accumulator, api=self._api,
        )
        self._memo[key] = compiled
        return compiled, hit


def fold_outputs(
    semiring: "Semiring", outputs: Sequence[np.ndarray]
) -> np.ndarray:
    """⊕-fold ``outputs`` strictly left to right: the split-k combine.

    The first output is taken as is and every fold is cast to the ring's
    output dtype, so serial and threaded runs combine byte-identically
    whatever order the launches finished in.  Split-k passes its
    partials in launch order with the (pre-cast) accumulator last.
    """
    combined = outputs[0]
    for output in outputs[1:]:
        combined = np.asarray(
            semiring.oplus(combined, output), dtype=semiring.output_dtype
        )
    return combined


def gather_rows(
    shape: tuple[int, int],
    dtype: np.dtype,
    windows: Sequence[tuple[int, int]],
    outputs: Sequence[np.ndarray],
) -> np.ndarray:
    """Write each band's output into its ``[start, stop)`` row window.

    One output whose window covers every row is returned as is, with no
    copy (a one-band closure launch, a single-device banding).
    """
    if len(outputs) == 1 and windows[0] == (0, shape[0]):
        return outputs[0]
    out = np.empty(shape, dtype=dtype)
    for (row_start, row_stop), output in zip(windows, outputs):
        out[row_start:row_stop] = output
    return out


def split_k_graph(
    context: "ExecutionContext",
    opcode: MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    *,
    splits: int,
) -> LaunchGraph:
    """Lower one split-k mmo: one launch per non-empty k partition.

    The inner dimension is partitioned by
    :func:`~repro.backends.tiling.partition_bands`; each launch takes
    views of its partition's columns of ``A`` and rows of ``B``.  Empty
    partitions are skipped, and when every partition is empty
    (``k == 0``) the call is a single ``k = 0`` launch.  The caller folds
    the partials with :func:`fold_outputs`.
    """
    from repro.backends.tiling import partition_bands  # lazy: layered above

    m, k = a.shape
    n = b.shape[1]
    builder = GraphBuilder(context, "mmo_tiled_split_k")
    pool = ArtifactPool(context, "mmo_tiled_split_k")
    windows = [(lo, hi) for lo, hi in partition_bands(k, splits) if hi > lo]
    for lo, hi in windows or [(0, k)]:
        compiled, hit = pool.artifact(
            opcode, m, n, hi - lo, has_accumulator=False
        )
        builder.launch(
            opcode, a[:, lo:hi], b[lo:hi], compiled=compiled, cache_hit=hit
        )
    return builder.build()


def batched_graph(
    context: "ExecutionContext",
    opcode: MmoOpcode,
    a3: np.ndarray,
    b3: np.ndarray,
    c3: np.ndarray | None,
    batch: int,
) -> LaunchGraph:
    """Lower one batched mmo: ``batch`` independent launches.

    A broadcast operand (stack depth 1) feeds every launch.  Stacks are
    uniform, so one compiled artifact serves the whole batch;
    inconsistent shapes fall back to per-launch single-shot dispatch,
    which raises identically to the unbatched call.  The caller stacks
    the outputs.
    """
    builder = GraphBuilder(context, "batched_mmo")
    pool = ArtifactPool(context, "batched_mmo")
    m, k = a3.shape[1], a3.shape[2]
    n = b3.shape[2]
    shapes_ok = b3.shape[1] == k and (
        c3 is None or (c3.shape[1] == m and c3.shape[2] == n)
    )

    def pick(stack: np.ndarray, index: int) -> np.ndarray:
        return stack[0] if stack.shape[0] == 1 else stack[index]

    for index in range(batch):
        compiled, hit = (
            pool.artifact(opcode, m, n, k, has_accumulator=c3 is not None)
            if shapes_ok
            else (None, None)
        )
        builder.launch(
            opcode,
            pick(a3, index),
            pick(b3, index),
            None if c3 is None else pick(c3, index),
            compiled=compiled,
            cache_hit=hit,
        )
    return builder.build()


def closure_step_graph(
    context: "ExecutionContext",
    pool: ArtifactPool,
    opcode: MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    bands: int = 1,
) -> tuple[LaunchGraph, list[tuple[int, int]]]:
    """Lower one closure launch ``C ⊕ (A ⊗ B)`` (optionally banded).

    :func:`~repro.runtime.closure.closure` runs every launch of every
    method through this one builder — a Leyzorek squaring is
    ``A = B = C = D``, a blocked round's panel and rank-64 update pass
    their blocks.  With ``bands == 1`` it is one whole launch.  With
    more bands, the rows of ``A`` and ``C`` are partitioned on tile
    boundaries into independent launches (each band computes
    ``C[r] ⊕ (A[r] ⊗ B)``) — bit-identical because every band's rows are
    disjoint.  The caller gathers the outputs with :func:`gather_rows`;
    the convergence check is the closure loop's.

    The caller owns the :class:`ArtifactPool` so compile state persists
    across launches.  Returns ``(graph, per-launch row windows)``.
    """
    from repro.backends.tiling import partition_bands  # lazy: layered above

    m, k = a.shape
    n = b.shape[1]
    builder = GraphBuilder(context, "closure")
    windows = [w for w in partition_bands(m, bands, tile=TILE) if w[1] > w[0]]
    if not windows:
        windows = [(0, m)]
    for row_start, row_stop in windows:
        compiled, hit = pool.artifact(
            opcode, row_stop - row_start, n, k, has_accumulator=True
        )
        builder.launch(
            opcode,
            a[row_start:row_stop],
            b,
            c[row_start:row_stop],
            compiled=compiled,
            cache_hit=hit,
        )
    return builder.build(), windows


def multidevice_graph(
    roster: "list[tuple[int, Simd2Device]]",
    semiring: "Semiring",
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    context: "ExecutionContext",
    *,
    wrap_hw_errors: bool,
) -> tuple[LaunchGraph, list[tuple[int, int, int]]]:
    """Lower one multi-device banding: one launch per non-empty device band.

    Output rows are partitioned tile-aligned across the roster; each
    band's launch carries its device, ``wrap_hw_errors`` (so the
    partitioner can repartition) and a ``band [start:stop)`` label for
    retry events.  The context's fault plan is consulted *at build
    time*, in band order: a device scheduled to hard-fail raises
    :class:`~repro.resilience.faults.DeviceFailure` before that band's
    ordinal is reserved — bands built earlier keep their ordinals, so a
    repartition rebuild numbers exactly like the pre-graph retry loop.

    Returns ``(graph, bands)`` with one ``(device_index, row_start,
    row_stop)`` per launch; the caller gathers the outputs with
    :func:`gather_rows`.
    """
    from repro.backends.tiling import partition_bands  # lazy: layered above

    opcode = resolve_opcode(semiring)
    m, k = a.shape
    n = b.shape[1]
    builder = GraphBuilder(context, "mmo_tiled_multi_device")
    pool = ArtifactPool(context, "mmo_tiled_multi_device")
    windows = partition_bands(m, len(roster), tile=TILE)
    bands: list[tuple[int, int, int]] = []
    for position, (index, device) in enumerate(roster):
        row_start, row_stop = windows[position]
        if row_stop <= row_start:
            continue
        plan = context.fault_plan
        if plan is not None and plan.device_should_fail(index):
            from repro.resilience.faults import DeviceFailure  # lazy: layered above

            plan.record_device_failure(
                context, "mmo_tiled_multi_device", index
            )
            raise DeviceFailure(index, "injected hard failure")
        compiled, hit = pool.artifact(
            opcode, row_stop - row_start, n, k, has_accumulator=c is not None
        )
        builder.launch(
            opcode,
            a[row_start:row_stop],
            b,
            None if c is None else c[row_start:row_stop],
            compiled=compiled,
            cache_hit=hit,
            device=device,
            device_index=index,
            wrap_hw_errors=wrap_hw_errors,
            label=f"band [{row_start}:{row_stop})",
        )
        bands.append((index, row_start, row_stop))
    return builder.build(), bands
