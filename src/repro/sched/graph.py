"""LaunchGraph: the explicit intermediate form of loop-shaped dispatch.

Every loop-shaped entry point in :mod:`repro.runtime` — closure
iterations, batch items, split-k partials, multi-device row bands — used
to hand-roll its own orchestration loop around
:func:`~repro.runtime.kernels.execute_compiled`.  This module gives those
loops one shared intermediate form: a :class:`LaunchGraph` whose nodes
are compiled-launch, ⊕-reduce and row-gather steps with *explicit* data
dependencies, built by :class:`GraphBuilder` and run by a
:class:`~repro.sched.executor.Scheduler`.  The same lower-then-schedule
split the compile layer takes per launch (lower the shape, then pick how
to execute the artifact), applied one level up, across launches.  Every
node produces an array; per-call concerns — ring-input validation, the
closure loop's convergence check — stay with the entry point.

Two properties are load-bearing for bit-identical parallel execution:

- **Pinned fold order.**  ⊕ is associative and commutative on every
  SIMD² ring, but floating-point ⊕ is not: a :class:`ReduceStep` folds
  its inputs strictly left to right and a :class:`GatherStep` writes
  fixed row windows, so the combined result never depends on which node
  finished first.
- **Build-time fault ordinals.**  :class:`GraphBuilder.launch` reserves
  each node's :class:`~repro.resilience.faults.FaultPlan` ordinal at
  *build* time, in node order (degenerate empty-output launches claim
  none, matching direct dispatch).  A threaded executor therefore
  injects exactly the faults a serial run would — the schedule never
  depends on thread interleaving.

Graphs are immutable once built; rebuilding (a repartition after a
device failure, the next closure iteration) is a fresh
:class:`GraphBuilder` pass, which is what makes resilience a graph
*rewrite* rather than bespoke control flow.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterator, Union

import numpy as np

from repro.isa.opcodes import MmoOpcode
from repro.runtime.api import RuntimeError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.artifact import CompiledMmo
    from repro.core.semiring import Semiring
    from repro.hw.device import Simd2Device
    from repro.resilience.policy import FallbackChain, RetryPolicy
    from repro.runtime.context import ExecutionContext

__all__ = [
    "GatherStep",
    "GraphBuilder",
    "GraphError",
    "LaunchGraph",
    "LaunchStep",
    "Ref",
    "ReduceStep",
    "Step",
]


class GraphError(RuntimeError_):
    """Malformed graph construction or value reference."""


@dataclasses.dataclass(frozen=True)
class Ref:
    """A value reference: a constant or a node output, optionally windowed.

    Exactly one of ``node``/``const`` is set.  ``rows``/``cols`` are
    half-open index windows applied on resolution (views, never copies),
    so one constant operand can feed many banded launches without
    materialising the slices in the graph.
    """

    node: int | None = None
    const: int | None = None
    rows: tuple[int, int] | None = None
    cols: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.node is None) == (self.const is None):
            raise GraphError(
                "a Ref names exactly one of a node output or a constant"
            )

    def window(
        self,
        *,
        rows: tuple[int, int] | None = None,
        cols: tuple[int, int] | None = None,
    ) -> "Ref":
        """A copy of this reference narrowed to the given index windows."""
        if rows is not None and self.rows is not None:
            raise GraphError("Ref rows are already windowed")
        if cols is not None and self.cols is not None:
            raise GraphError("Ref cols are already windowed")
        return dataclasses.replace(
            self,
            rows=rows if rows is not None else self.rows,
            cols=cols if cols is not None else self.cols,
        )


@dataclasses.dataclass(frozen=True)
class LaunchStep:
    """One mmo launch: replay a compiled artifact, or compile at dispatch.

    ``compiled is None`` compiles at dispatch through
    :func:`~repro.runtime.kernels.mmo_tiled` (the policy nodes of
    ``resilient_mmo``/``checked_mmo``, empty outputs, and batch items
    whose shapes disagree); otherwise
    :func:`~repro.runtime.kernels.execute_compiled` replays the artifact
    with ``cache_hit`` recorded on the launch.  ``fault_ordinal``
    is the node's build-time-reserved fault-plan ordinal (``None`` when
    no plan rides the context, or for degenerate empty-output launches).
    A node never validates ring inputs: the entry point that built the
    graph did that once, for the whole call.

    The resilience fields make recovery per-node *policy*, applied by
    the executor's one recovery driver: ``checked`` verifies the result
    against its ⊕-fold ABFT checksums, ``retry`` re-runs the node on
    retryable failures (each retry claims a fresh ordinal,
    deterministically escaping transient faults), ``fallback`` walks a
    backend chain once retries are spent, and ``wrap_hw_errors``
    converts emulator :class:`~repro.hw.errors.HardwareError`\\ s into
    :class:`~repro.resilience.faults.DeviceFailure` carrying
    ``device_index`` so the caller can repartition.
    """

    api: str
    opcode: MmoOpcode
    a: Ref
    b: Ref
    c: Ref | None = None
    compiled: "CompiledMmo | None" = None
    cache_hit: bool | None = None
    fault_ordinal: int | None = None
    device: "Simd2Device | None" = None
    device_index: int | None = None
    checked: bool = False
    retry: "RetryPolicy | None" = None
    fallback: "FallbackChain | None" = None
    wrap_hw_errors: bool = False
    rtol: float = 1e-4
    atol: float = 1e-6
    label: str = ""

    def refs(self) -> Iterator[Ref]:
        yield self.a
        yield self.b
        if self.c is not None:
            yield self.c


@dataclasses.dataclass(frozen=True)
class ReduceStep:
    """Fold ``inputs`` with the ring's ⊕, strictly left to right.

    The first input is taken as-is; every subsequent fold is cast to the
    ring's output dtype — exactly the split-k combine the runtime
    performed inline, so serial and threaded runs produce byte-identical
    partial sums regardless of node completion order.
    """

    semiring: "Semiring"
    inputs: tuple[Ref, ...]

    def __post_init__(self) -> None:
        if not self.inputs:
            raise GraphError("ReduceStep needs at least one input")

    def refs(self) -> Iterator[Ref]:
        yield from self.inputs


@dataclasses.dataclass(frozen=True)
class GatherStep:
    """Assemble row bands into one ``shape`` output, windows pinned."""

    shape: tuple[int, int]
    dtype: np.dtype
    pieces: tuple[tuple[int, int, Ref], ...]

    def refs(self) -> Iterator[Ref]:
        for _, _, ref in self.pieces:
            yield ref


Step = Union[LaunchStep, ReduceStep, GatherStep]


@dataclasses.dataclass(frozen=True)
class LaunchGraph:
    """An immutable DAG of dispatch steps in deterministic build order.

    Node indices double as the serial execution order (builders append
    dependencies before dependents, so build order is a topological
    order); executors may run independent nodes concurrently but must
    resolve every node's inputs from exactly these references.
    """

    nodes: tuple[Step, ...]
    constants: tuple[np.ndarray, ...]

    def dependencies(self, index: int) -> tuple[int, ...]:
        """Sorted indices of the nodes this node reads."""
        return tuple(
            sorted(
                {
                    ref.node
                    for ref in self.nodes[index].refs()
                    if ref.node is not None
                }
            )
        )

    @property
    def launches(self) -> tuple[int, ...]:
        """Indices of the launch nodes, in build (= ordinal) order."""
        return tuple(
            i for i, node in enumerate(self.nodes) if isinstance(node, LaunchStep)
        )


class GraphBuilder:
    """Accumulates steps into a :class:`LaunchGraph`, reserving ordinals.

    The builder tracks every value's shape so it can tell degenerate
    launches (``m == 0`` or ``n == 0``) from real ones: only real
    launches reserve a fault-plan ordinal, preserving the direct-dispatch
    rule that degenerate fast paths claim no fault-schedule slot.
    Constants are deduplicated by identity, so a broadcast operand feeds
    every node through one slot.
    """

    def __init__(self, context: "ExecutionContext", api: str):
        self._context = context
        self._api = api
        self._nodes: list[Step] = []
        self._constants: list[np.ndarray] = []
        self._const_ids: dict[int, Ref] = {}
        self._shapes: list[tuple[int, ...]] = []  # per node output

    # ------------------------------------------------------------------
    def constant(self, array: np.ndarray) -> Ref:
        """Register an input array (deduplicated by object identity)."""
        ref = self._const_ids.get(id(array))
        if ref is None:
            ref = Ref(const=len(self._constants))
            self._constants.append(array)
            self._const_ids[id(array)] = ref
        return ref

    def shape_of(self, ref: Ref) -> tuple[int, ...]:
        """The (possibly windowed) shape a reference resolves to."""
        if ref.const is not None:
            shape = tuple(self._constants[ref.const].shape)
        elif ref.node is not None:
            shape = self._shapes[ref.node]
        else:  # pragma: no cover - Ref.__post_init__ forbids this
            raise GraphError("unresolvable reference")
        if ref.rows is not None:
            shape = (ref.rows[1] - ref.rows[0],) + shape[1:]
        if ref.cols is not None:
            shape = shape[:1] + (ref.cols[1] - ref.cols[0],) + shape[2:]
        return shape

    def _append(self, node: Step, shape: tuple[int, ...]) -> Ref:
        self._nodes.append(node)
        self._shapes.append(shape)
        return Ref(node=len(self._nodes) - 1)

    # ------------------------------------------------------------------
    def launch(
        self,
        opcode: MmoOpcode,
        a: Ref,
        b: Ref,
        c: Ref | None = None,
        *,
        compiled: "CompiledMmo | None" = None,
        cache_hit: bool | None = None,
        device: "Simd2Device | None" = None,
        device_index: int | None = None,
        checked: bool = False,
        retry: "RetryPolicy | None" = None,
        fallback: "FallbackChain | None" = None,
        wrap_hw_errors: bool = False,
        rtol: float = 1e-4,
        atol: float = 1e-6,
        label: str = "",
    ) -> Ref:
        """Append one launch node, reserving its fault ordinal now.

        Reservation order is append order, so the fault schedule is fully
        determined when :meth:`build` returns — before any executor runs.
        """
        m = self.shape_of(a)[0]
        shape_b = self.shape_of(b)
        n = shape_b[1] if len(shape_b) > 1 else 0
        fault_ordinal: int | None = None
        plan = self._context.fault_plan
        if plan is not None and m > 0 and n > 0:
            fault_ordinal = plan.reserve()
        node = LaunchStep(
            api=self._api,
            opcode=opcode,
            a=a,
            b=b,
            c=c,
            compiled=compiled,
            cache_hit=cache_hit,
            fault_ordinal=fault_ordinal,
            device=device,
            device_index=device_index,
            checked=checked,
            retry=retry,
            fallback=fallback,
            wrap_hw_errors=wrap_hw_errors,
            rtol=rtol,
            atol=atol,
            label=label,
        )
        return self._append(node, (m, n))

    def reduce(self, semiring: "Semiring", inputs: tuple[Ref, ...]) -> Ref:
        """Append a pinned left-to-right ⊕ fold over ``inputs``."""
        node = ReduceStep(semiring=semiring, inputs=inputs)
        return self._append(node, self.shape_of(inputs[0]))

    def gather(
        self,
        shape: tuple[int, int],
        dtype: np.dtype,
        pieces: tuple[tuple[int, int, Ref], ...],
    ) -> Ref:
        """Append a row-band assembly into one ``shape`` array."""
        return self._append(
            GatherStep(shape=shape, dtype=dtype, pieces=pieces), shape
        )

    def build(self) -> LaunchGraph:
        return LaunchGraph(
            nodes=tuple(self._nodes), constants=tuple(self._constants)
        )
