"""Graph builders: lower the loop-shaped entry points onto LaunchGraphs.

Each builder takes the validated operands of one runtime entry point and
produces a :class:`~repro.sched.graph.LaunchGraph` plus the references
the entry point reads back (combined output, per-launch statistics, the
convergence flag).  The lowering preserves the observable behaviour of
the hand-rolled loops exactly:

- **cache-hit signatures**: one :class:`ArtifactPool` per entry-point
  call compiles each distinct launch shape once through
  :func:`~repro.runtime.kernels.compile_in_context` and stamps the
  compile call's hit flag on the *first* node of that shape, ``True`` on
  every later one — the one-miss-then-hits trace signature of the
  compile/execute split;
- **fault ordinals** are reserved in node append order by the
  :class:`~repro.sched.graph.GraphBuilder` (see satellite: build-time
  ordinal assignment);
- **banding** comes from the one shared
  :func:`~repro.backends.tiling.partition_bands` helper (split-k
  partitions the inner dimension, multi-device and banded closure
  partition output rows on 16-row tile boundaries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.compile.lower import resolve_opcode
from repro.core.tiles import TILE
from repro.isa.opcodes import MmoOpcode
from repro.runtime.kernels import compile_in_context
from repro.sched.graph import GraphBuilder, LaunchGraph, Ref

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.artifact import CompiledMmo
    from repro.core.semiring import Semiring
    from repro.hw.device import Simd2Device
    from repro.runtime.context import ExecutionContext

__all__ = [
    "ArtifactPool",
    "batched_graph",
    "closure_step_graph",
    "multidevice_graph",
    "split_k_graph",
]


class ArtifactPool:
    """Compile-once memo shared by every launch node of one entry point.

    Wraps the compile seam: the first request for a launch shape lowers
    it through :func:`~repro.runtime.kernels.compile_in_context` (firing
    the pre/post-compile hooks once, touching the plan cache once) and
    reports that compile's cache-hit flag; repeat requests return the
    memoised artifact with ``hit=True`` — the replay signature.  Pools
    outlive a single graph on purpose: a closure loop keeps one pool
    across launches, so the first launch of each shape reports the
    cold-cache miss and every later one a hit, exactly like the
    pre-graph loop.

    The artifact is backend-agnostic, so every context gets one,
    ``backend="auto"`` included (its nodes re-plan per replay).  Only
    empty outputs yield ``(None, None)``: nothing is lowered for them,
    and their nodes dispatch through
    :func:`~repro.runtime.kernels.mmo_tiled`.
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
        """The artifact for one launch shape plus its node's cache-hit flag."""
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


def split_k_graph(
    context: "ExecutionContext",
    opcode: MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    *,
    splits: int,
) -> tuple[LaunchGraph, Ref, list[Ref]]:
    """Lower one split-k mmo: partial launches plus a pinned ⊕ fold.

    The inner dimension is partitioned by
    :func:`~repro.backends.tiling.partition_bands`; empty partitions are
    skipped, and when every partition is empty (``k == 0``) the call
    degenerates to a single full launch, as before.  The reduce node
    folds the partials left to right and the (pre-cast) accumulator
    last — the exact inline combine order this replaced.

    Returns ``(graph, output ref, per-partial launch refs)``.
    """
    from repro.backends.tiling import partition_bands  # lazy: layered above

    semiring = opcode.semiring
    m, k = a.shape
    n = b.shape[1]
    builder = GraphBuilder(context, "mmo_tiled_split_k")
    pool = ArtifactPool(context, "mmo_tiled_split_k")
    a_ref = builder.constant(a)
    b_ref = builder.constant(b)
    launch_refs: list[Ref] = []
    for lo, hi in partition_bands(k, splits):
        if hi <= lo:
            continue
        compiled, hit = pool.artifact(
            opcode, m, n, hi - lo, has_accumulator=False
        )
        launch_refs.append(
            builder.launch(
                opcode,
                a_ref.window(cols=(lo, hi)),
                b_ref.window(rows=(lo, hi)),
                None,
                compiled=compiled,
                cache_hit=hit,
                validate_inputs=False,
            )
        )
    if not launch_refs:
        # Every partition was empty (k == 0): one degenerate-k launch.
        compiled, hit = pool.artifact(opcode, m, n, k, has_accumulator=False)
        launch_refs.append(
            builder.launch(
                opcode, a_ref, b_ref, None,
                compiled=compiled, cache_hit=hit, validate_inputs=False,
            )
        )
    inputs = list(launch_refs)
    if c is not None:
        inputs.append(builder.constant(c))
    out_ref = launch_refs[0]
    if len(inputs) > 1:
        out_ref = builder.reduce(semiring, tuple(inputs))
    return builder.build(), out_ref, launch_refs


def batched_graph(
    context: "ExecutionContext",
    opcode: MmoOpcode,
    a3: np.ndarray,
    b3: np.ndarray,
    c3: np.ndarray | None,
    batch: int,
) -> tuple[LaunchGraph, list[Ref]]:
    """Lower one batched mmo: ``batch`` independent launch nodes.

    Broadcast operands (stack depth 1) land in one constant slot feeding
    every node.  Stacks are uniform, so one compiled artifact serves the
    whole batch; inconsistent shapes fall back to per-node single-shot
    dispatch, which raises identically to the unbatched call.

    Returns ``(graph, per-item launch refs)`` — items are independent,
    so there is no combine node; the caller stacks the outputs.
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

    launch_refs: list[Ref] = []
    for index in range(batch):
        compiled, hit = (
            pool.artifact(opcode, m, n, k, has_accumulator=c3 is not None)
            if shapes_ok
            else (None, None)
        )
        launch_refs.append(
            builder.launch(
                opcode,
                builder.constant(pick(a3, index)),
                builder.constant(pick(b3, index)),
                None if c3 is None else builder.constant(pick(c3, index)),
                compiled=compiled,
                cache_hit=hit,
                validate_inputs=False,
            )
        )
    return builder.build(), launch_refs


def closure_step_graph(
    context: "ExecutionContext",
    pool: ArtifactPool,
    opcode: MmoOpcode,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    bands: int = 1,
    convergence_check: bool = False,
    validate_inputs: bool = False,
) -> tuple[LaunchGraph, Ref, Ref | None, list[Ref]]:
    """Lower one closure launch ``C ⊕ (A ⊗ B)`` (optionally banded).

    :func:`~repro.runtime.closure.closure` runs every launch of every
    method through this one builder — a Leyzorek squaring is
    ``A = B = C = D``, a blocked round's panel and rank-64 update pass
    their blocks.  With ``bands == 1`` it is one whole launch plus an
    optional convergence check that compares the output against ``C``.
    With more bands, the rows of ``A`` and ``C`` are partitioned on tile
    boundaries into independent launches (each band computes
    ``C[r] ⊕ (A[r] ⊗ B)``) and gathered — bit-identical because every
    band's rows are disjoint.

    The caller owns the :class:`ArtifactPool` so compile state persists
    across launches.  Returns ``(graph, output ref, check ref or None,
    per-band launch refs)``.
    """
    from repro.backends.tiling import partition_bands  # lazy: layered above

    semiring = opcode.semiring
    m, k = a.shape
    n = b.shape[1]
    builder = GraphBuilder(context, "closure")
    a_ref, b_ref, c_ref = builder.constant(a), builder.constant(b), builder.constant(c)
    windows = [w for w in partition_bands(m, bands, tile=TILE) if w[1] > w[0]]
    if not windows:
        windows = [(0, m)]
    launch_refs: list[Ref] = []
    pieces: list[tuple[int, int, Ref]] = []
    for row_start, row_stop in windows:
        rows = row_stop - row_start
        compiled, hit = pool.artifact(opcode, rows, n, k, has_accumulator=True)
        whole = rows == m
        ref = builder.launch(
            opcode,
            a_ref if whole else a_ref.window(rows=(row_start, row_stop)),
            b_ref,
            c_ref if whole else c_ref.window(rows=(row_start, row_stop)),
            compiled=compiled,
            cache_hit=hit,
            validate_inputs=validate_inputs,
        )
        launch_refs.append(ref)
        pieces.append((row_start, row_stop, ref))
    if len(pieces) == 1 and pieces[0][:2] == (0, m):
        out_ref = pieces[0][2]
    else:
        out_ref = builder.gather(
            (m, n), semiring.output_dtype, tuple(pieces)
        )
    check_ref = builder.check(out_ref, c_ref) if convergence_check else None
    return builder.build(), out_ref, check_ref, launch_refs


def multidevice_graph(
    roster: "list[tuple[int, Simd2Device]]",
    semiring: "Semiring",
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    context: "ExecutionContext",
    **policy: Any,
) -> tuple[LaunchGraph, Ref, list[tuple[int, int, int, Ref]]]:
    """Lower one multi-device banding: per-device launches plus a gather.

    Output rows are partitioned tile-aligned across the roster; each
    band's node carries its device, the resilience ``policy`` keywords
    of :meth:`~repro.sched.graph.GraphBuilder.launch` (ABFT checking,
    retries, hardware-error wrapping) and a ``band [start:stop)`` label
    for retry events.  The context's fault plan is consulted *at build
    time*, in band order: a device scheduled to hard-fail raises
    :class:`~repro.resilience.faults.DeviceFailure` before that band's
    ordinal is reserved — bands built earlier keep their ordinals, so a
    repartition rebuild numbers exactly like the pre-graph retry loop.

    Returns ``(graph, gathered output ref, band metadata)`` where each
    band entry is ``(device_index, row_start, row_stop, launch ref)``.
    """
    from repro.backends.tiling import partition_bands  # lazy: layered above

    opcode = resolve_opcode(semiring)
    m, k = a.shape
    n = b.shape[1]
    builder = GraphBuilder(context, "mmo_tiled_multi_device")
    pool = ArtifactPool(context, "mmo_tiled_multi_device")
    a_ref = builder.constant(a)
    b_ref = builder.constant(b)
    c_ref = None if c is None else builder.constant(c)
    windows = partition_bands(m, len(roster), tile=TILE)
    bands: list[tuple[int, int, int, Ref]] = []
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
        ref = builder.launch(
            opcode,
            a_ref.window(rows=(row_start, row_stop)),
            b_ref,
            None if c_ref is None else c_ref.window(rows=(row_start, row_stop)),
            compiled=compiled,
            cache_hit=hit,
            validate_inputs=False,
            device=device,
            device_index=index,
            label=f"band [{row_start}:{row_stop})",
            **policy,
        )
        bands.append((index, row_start, row_stop, ref))
    out_ref = builder.gather(
        (m, n),
        semiring.output_dtype,
        tuple((start, stop, ref) for _, start, stop, ref in bands),
    )
    return builder.build(), out_ref, bands
