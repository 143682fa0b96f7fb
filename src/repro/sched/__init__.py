"""Execution graphs and scheduling for loop-shaped SIMD² dispatch.

The lower-then-schedule split applied *across* launches: every
loop-shaped entry point in :mod:`repro.runtime` (closure launches,
which :meth:`~repro.runtime.host.HostRuntime.run_closure` also runs,
:func:`~repro.runtime.batched.batched_mmo`, split-k,
:func:`~repro.runtime.multidevice.mmo_tiled_multi_device`) lowers its work
onto a :class:`LaunchGraph` — launch / reduce / gather / check nodes
with explicit data dependencies and build-time fault ordinals — and a
:class:`Scheduler` decides how to run it.

:class:`SerialExecutor` (the default) is bit-identical to the pre-graph
hand-rolled loops; :class:`ThreadPoolExecutor` runs independent nodes
concurrently and is *also* bit-identical on every ring, because the
graph pins all order that matters (fold order, gather windows, fault
ordinals).  Attach a scheduler via the execution context::

    from repro.sched import ThreadPoolExecutor
    with use_context(scheduler=ThreadPoolExecutor(max_workers=4)):
        closure("min-plus", adjacency, bands=4)

See :mod:`repro.sched.graph` for the IR, :mod:`repro.sched.executor`
for the schedulers, :mod:`repro.sched.builders` for the lowerings.
"""

from repro.sched.builders import (
    ArtifactPool,
    batched_graph,
    closure_step_graph,
    multidevice_graph,
    split_k_graph,
)
from repro.sched.executor import (
    GraphResult,
    Scheduler,
    SerialExecutor,
    ThreadPoolExecutor,
    resolve_scheduler,
)
from repro.sched.graph import (
    CheckStep,
    GatherStep,
    GraphBuilder,
    GraphError,
    LaunchGraph,
    LaunchStep,
    Ref,
    ReduceStep,
    Step,
)

__all__ = [
    "ArtifactPool",
    "CheckStep",
    "GatherStep",
    "GraphBuilder",
    "GraphError",
    "GraphResult",
    "LaunchGraph",
    "LaunchStep",
    "Ref",
    "ReduceStep",
    "Scheduler",
    "SerialExecutor",
    "Step",
    "ThreadPoolExecutor",
    "batched_graph",
    "closure_step_graph",
    "multidevice_graph",
    "resolve_scheduler",
    "split_k_graph",
]
