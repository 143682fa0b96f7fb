"""Outside-in tracing: spans around the calls into each layer's public functions.

:class:`Tracer` wraps a fixed list of functions, each patched in the
module (or on the class) where its caller looks it up, and records one
span per call: name, layer, start, end, parent span and solve id, kept
in memory.  A span's self time is its duration minus its child spans;
self times are summed per layer and per metric as spans close, and
counts are read from the wrapped calls' arguments and return values.

The wrappers exist only while :meth:`Tracer.installed` is active, and no
``Trace`` is ever attached to an execution context: untraced solves keep
the program's launchless fast path.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Any, Callable, Iterator

__all__ = ["PER_LAYER_UNITS", "Tracer"]

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    "apps.self_s": "s",
    "apps.topk_s": "s",
    "runtime.self_s": "s",
    "runtime.launches": "count",
    "runtime.iterations": "count",
    "plan.self_s": "s",
    "plan.decisions.sparse": "count",
    "plan.decisions.vectorized": "count",
    "plan.probes": "count",
    "compile.self_s": "s",
    "compile.calls": "count",
    "compile.hit_rate": "ratio",
    "hooks.self_s": "s",
    "hooks.calls": "count",
    "sched.build_s": "s",
    "sched.run_self_s": "s",
    "sched.nodes": "count",
    "backends.pad_s": "s",
    "backends.pad_waste": "ratio",
    "backends.vectorized.calls": "count",
    "backends.vectorized.self_s": "s",
    "backends.sparse.calls": "count",
    "backends.sparse.self_s": "s",
    "core.busy_s": "s",
    "core.calls": "count",
    "core.gops": "Gop/s",
    "core.temp_mb": "MB",
    "sparse.spgemm_s": "s",
    "sparse.convert_s": "s",
    "sparse.products": "count",
    "sparse.products_per_s": "1/s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}

Count = Callable[[Counter, tuple, Any], None]


def _count_iterations(counts: Counter, args: tuple, result: Any) -> None:
    counts["runtime.iterations"] += result.iterations


def _count_decision(counts: Counter, args: tuple, result: Any) -> None:
    chosen, plan = result
    counts[f"plan.decisions.{chosen}"] += 1
    counts["plan.probes"] += bool(plan.probe)


def _count_hit(counts: Counter, args: tuple, result: Any) -> None:
    counts["compile.hits"] += bool(result[1])


def _count_nodes(counts: Counter, args: tuple, result: Any) -> None:
    counts["sched.nodes"] += len(result[0].nodes)


def _count_padding(counts: Counter, args: tuple, result: Any) -> None:
    _, a, b = args[:3]
    counts["backends.pairs"] += a.shape[0] * b.shape[1] * a.shape[1]
    counts["backends.padded_pairs"] += (
        result.a_pad.shape[0] * result.b_pad.shape[1] * result.a_pad.shape[1]
    )


def _core_counter() -> Count:
    from repro.core import ops

    # Rows per (rows, k, n) broadcast temporary of the row-blocked kernel.
    row_block = getattr(ops, "_ROW_BLOCK", None)

    def count(counts: Counter, args: tuple, result: Any) -> None:
        a, b = args[1:3]
        m, k = a.shape
        n = b.shape[1]
        counts["core.pairs"] += m * n * k
        rows = m if row_block is None else min(m, row_block)
        # The kernel's temporary has the result's dtype.
        temp = rows * k * n * result.itemsize
        if temp > counts["core.temp_bytes"]:
            counts["core.temp_bytes"] = temp

    return count


def _count_products(counts: Counter, args: tuple, result: Any) -> None:
    counts["sparse.products"] += result[1].products


def _targets() -> list[tuple[Any, str, str, str | None, str | None, Count | None]]:
    """Per wrapped call: ``(owner, attribute, layer, self-time metric,
    call-count metric, count from arguments and result)``."""
    import repro.apps
    import repro.apps.apsp
    import repro.apps.gtc
    import repro.apps.knn
    import repro.backends.sparse
    import repro.backends.vectorized
    import repro.core.ops
    import repro.plan.backend
    import repro.runtime.kernels
    import repro.sched.builders
    import repro.sched.executor
    from repro.backends.sparse import SparseBackend
    from repro.backends.vectorized import VectorizedBackend
    from repro.hooks.pipeline import HookPipeline
    from repro.plan.backend import AutoBackend
    from repro.sched.executor import SerialExecutor
    from repro.sparse.csr import CsrMatrix

    return [
        (repro.apps, "apsp_simd2", "apps", None, None, None),
        (repro.apps, "knn_simd2", "apps", None, None, None),
        (repro.apps, "gtc_simd2", "apps", None, None, None),
        (repro.apps.knn, "select_k_smallest", "apps", "apps.topk_s", None, None),
        (repro.apps.apsp, "closure", "runtime", None, None, _count_iterations),
        (repro.apps.gtc, "closure", "runtime", None, None, _count_iterations),
        (repro.apps.knn, "mmo_tiled", "runtime", None, "runtime.launches", None),
        (repro.sched.executor, "execute_compiled", "runtime", None, "runtime.launches", None),
        (AutoBackend, "select_backend", "plan", None, None, _count_decision),
        (repro.plan.backend, "estimate_density", "plan", None, None, None),
        (repro.sched.builders, "compile_in_context", "compile", None, "compile.calls", _count_hit),
        (repro.runtime.kernels, "compile_in_context", "compile", None, "compile.calls", _count_hit),
        (HookPipeline, "begin_launch", "hooks", None, "hooks.calls", None),
        (HookPipeline, "finish_launch", "hooks", None, "hooks.calls", None),
        (repro.sched.builders, "closure_step_graph", "sched", "sched.build_s", None, _count_nodes),
        (SerialExecutor, "run", "sched", "sched.run_self_s", None, None),
        (VectorizedBackend, "execute", "backends", "backends.vectorized.self_s",
         "backends.vectorized.calls", None),
        (SparseBackend, "execute", "backends", "backends.sparse.self_s",
         "backends.sparse.calls", None),
        (repro.backends.vectorized, "plan_mmo", "backends", "backends.pad_s", None, _count_padding),
        (repro.core.ops, "mmo", "core", "core.busy_s", "core.calls", _core_counter()),
        (repro.backends.sparse, "spgemm", "sparse", "sparse.spgemm_s", None, _count_products),
        (CsrMatrix, "from_dense", "sparse", "sparse.convert_s", None, None),
        (CsrMatrix, "to_dense_for", "sparse", "sparse.convert_s", None, None),
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``(target, start, end, parent span index or -1, solve id)``.
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        #: ``(name, layer, self-time metric, call-count metric)`` per target.
        self.targets: list[tuple[str, str, str | None, str | None]] = []
        self.counts: Counter = Counter()
        #: Wrap targets the program no longer has (reported, not fatal).
        self.missing: list[str] = []
        self.solve = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, target: int, count: Count | None) -> Callable:
        # Kept minimal: self times are derived from the spans afterwards.
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    target, start, end, stack[-1] if stack else -1, tracer.solve
                )
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every wrap target for the extent of the block."""
        self._saved = []
        self.missing = []
        for owner, attr, layer, metric, calls, count in _targets():
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(label)
                continue
            meta = (label, layer, metric, calls)
            if meta not in self.targets:
                self.targets.append(meta)
            target = self.targets.index(meta)
            if isinstance(original, classmethod):
                replacement: Any = classmethod(self._wrap(original.__func__, target, count))
            else:
                replacement = self._wrap(original, target, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved = []

    def self_times(self) -> tuple[Counter, Counter]:
        """Self seconds per layer, and per metric self seconds and call counts.

        A span's self time is its duration minus its child spans'.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        layers: Counter = Counter()
        metrics: Counter = Counter()
        for index, span in enumerate(spans):
            if span is None:
                continue
            target, start, end, _, _ = span
            _, layer, metric, calls = self.targets[target]
            own = end - start - child_s[index]
            layers[layer] += own
            if metric is not None:
                metrics[metric] += own
            if calls is not None:
                metrics[calls] += 1
        return layers, metrics

    def metrics(self, solves: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics, per traced solve unless a ratio.

        ``traced_s`` and ``untraced_s`` are the summed wall times of the
        traced solves and of untraced solves of the same inputs.
        """
        per = 1.0 / max(solves, 1)
        layer, metric = self.self_times()
        counts = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "apps.self_s": layer["apps"] * per,
            "apps.topk_s": metric["apps.topk_s"] * per,
            "runtime.self_s": layer["runtime"] * per,
            "runtime.launches": metric["runtime.launches"] * per,
            "runtime.iterations": counts["runtime.iterations"] * per,
            "plan.self_s": layer["plan"] * per,
            "plan.decisions.sparse": counts["plan.decisions.sparse"] * per,
            "plan.decisions.vectorized": counts["plan.decisions.vectorized"] * per,
            "plan.probes": counts["plan.probes"] * per,
            "compile.self_s": layer["compile"] * per,
            "compile.calls": metric["compile.calls"] * per,
            "compile.hit_rate": ratio(counts["compile.hits"], metric["compile.calls"]),
            "hooks.self_s": layer["hooks"] * per,
            "hooks.calls": metric["hooks.calls"] * per,
            "sched.build_s": metric["sched.build_s"] * per,
            "sched.run_self_s": metric["sched.run_self_s"] * per,
            "sched.nodes": counts["sched.nodes"] * per,
            "backends.pad_s": metric["backends.pad_s"] * per,
            "backends.pad_waste": ratio(
                counts["backends.padded_pairs"], counts["backends.pairs"]
            ),
            "backends.vectorized.calls": metric["backends.vectorized.calls"] * per,
            "backends.vectorized.self_s": metric["backends.vectorized.self_s"] * per,
            "backends.sparse.calls": metric["backends.sparse.calls"] * per,
            "backends.sparse.self_s": metric["backends.sparse.self_s"] * per,
            "core.busy_s": metric["core.busy_s"] * per,
            "core.calls": metric["core.calls"] * per,
            "core.gops": ratio(counts["core.pairs"], metric["core.busy_s"]) / 1e9,
            "core.temp_mb": counts["core.temp_bytes"] / 1e6,
            "sparse.spgemm_s": metric["sparse.spgemm_s"] * per,
            "sparse.convert_s": metric["sparse.convert_s"] * per,
            "sparse.products": counts["sparse.products"] * per,
            "sparse.products_per_s": ratio(
                counts["sparse.products"], metric["sparse.spgemm_s"]
            ),
            "trace.overhead": ratio(traced_s, untraced_s),
            "trace.coverage": ratio(sum(layer.values()), traced_s),
        }

    def write_chrome_trace(self, path: str, metadata: dict[str, Any]) -> None:
        """Write every span as Chrome trace-event JSON (opens in Perfetto)."""
        spans = [(i, span) for i, span in enumerate(self.spans) if span is not None]
        origin = min((span[1] for _, span in spans), default=0.0)
        events = [
            {
                "name": self.targets[target][0],
                "cat": self.targets[target][1],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "solve": solve},
            }
            for index, (target, start, end, parent, solve) in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                handle,
                separators=(",", ":"),
            )
