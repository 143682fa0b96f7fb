"""Execution graphs and scheduling for loop-shaped SIMD² dispatch.

The lower-then-schedule split applied *across* launches: every
loop-shaped entry point in :mod:`repro.runtime` (closure launches,
which :meth:`~repro.runtime.host.HostRuntime.run_closure` also runs,
:func:`~repro.runtime.batched.batched_mmo`, split-k,
:func:`~repro.runtime.multidevice.mmo_tiled_multi_device`) lowers its work
onto a :class:`LaunchGraph` — a tuple of independent launches over the
caller's arrays, with build-time fault ordinals — and a
:class:`Scheduler` decides how to run it.  The entry point combines the
outputs itself, in launch order: split-k ⊕-folds its partials
(:func:`fold_outputs`), banded launches gather their rows
(:func:`gather_rows`).

:class:`SerialExecutor` (the default) is bit-identical to the pre-graph
hand-rolled loops; :class:`ThreadPoolExecutor` runs the launches
concurrently and is *also* bit-identical on every ring, because nothing
that matters depends on the schedule (outputs in launch order, fault
ordinals reserved at build time).  Attach a scheduler via the execution
context::

    from repro.sched import ThreadPoolExecutor
    with use_context(scheduler=ThreadPoolExecutor(max_workers=4)):
        closure("min-plus", adjacency, bands=4)

See :mod:`repro.sched.graph` for the graph, :mod:`repro.sched.executor`
for the schedulers, :mod:`repro.sched.builders` for the lowerings and
the combines.
"""

from repro.sched.builders import (
    ArtifactPool,
    batched_graph,
    closure_step_graph,
    fold_outputs,
    gather_rows,
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
    GraphBuilder,
    GraphError,
    LaunchGraph,
    LaunchStep,
)

__all__ = [
    "ArtifactPool",
    "GraphBuilder",
    "GraphError",
    "GraphResult",
    "LaunchGraph",
    "LaunchStep",
    "Scheduler",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "batched_graph",
    "closure_step_graph",
    "fold_outputs",
    "gather_rows",
    "multidevice_graph",
    "resolve_scheduler",
    "split_k_graph",
]
