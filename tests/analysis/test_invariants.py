"""Tests for the repo-wide invariant lint (repro.analysis)."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import (
    BackendResolutionRule,
    ClockDisciplineRule,
    ImportLayeringRule,
    LaunchBracketRule,
    LockDisciplineRule,
    RawMatmulRule,
    SchedulerLoopRule,
    TraceWriteRule,
    default_rules,
    lint_paths,
)

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def _check(rule, code: str, relpath: str):
    return list(rule.check(ast.parse(textwrap.dedent(code)), relpath))


class TestTreeIsClean:
    def test_src_tree_lints_clean_with_zero_suppressions(self):
        violations = lint_paths(SRC_ROOT)
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_default_rules_cover_all_eight_invariants(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "trace-writes",
            "launch-bracketing",
            "raw-matmul",
            "lock-discipline",
            "backend-resolution",
            "scheduler-loops",
            "clock-discipline",
            "import-layering",
        }


class TestTraceWriteRule:
    def test_flags_trace_write_outside_hooks(self):
        violations = _check(
            TraceWriteRule(),
            """
            def dispatch(ctx):
                ctx.trace.record(make_record())
            """,
            "repro/runtime/kernels.py",
        )
        assert len(violations) == 1
        assert "hook pipeline" in violations[0].message

    def test_flags_record_event_on_any_receiver(self):
        violations = _check(
            TraceWriteRule(),
            """
            def report(sink):
                sink.record_event(evt)
            """,
            "repro/resilience/faults.py",
        )
        assert len(violations) == 1

    def test_hooks_package_is_exempt(self):
        rule = TraceWriteRule()
        assert not rule.applies_to("repro/hooks/builtin.py")
        assert not rule.applies_to("repro/runtime/trace.py")
        assert rule.applies_to("repro/runtime/kernels.py")

    def test_generic_record_needs_trace_receiver(self):
        violations = _check(
            TraceWriteRule(),
            """
            def save(db):
                db.record(row)  # not a Trace: different convention
            """,
            "repro/datasets/store.py",
        )
        assert violations == []


class TestLaunchBracketRule:
    def test_unbracketed_execute_flagged(self):
        violations = _check(
            LaunchBracketRule(),
            """
            def sneaky(impl, compiled, a, b):
                return impl.execute(compiled, a, b, None, context=None)
            """,
            "repro/runtime/kernels.py",
        )
        assert len(violations) == 1
        assert "begin_launch" in violations[0].message

    def test_bracketed_execute_clean(self):
        violations = _check(
            LaunchBracketRule(),
            """
            def dispatch(pipeline, impl, compiled, a, b):
                launch = pipeline.begin_launch(None, "x", None, a, b, None)
                result, stats = impl.execute(compiled, a, b, None, context=None)
                return pipeline.finish_launch(launch, result, stats, 0.0)
            """,
            "repro/runtime/kernels.py",
        )
        assert violations == []

    def test_only_runtime_in_scope(self):
        assert not LaunchBracketRule().applies_to("repro/backends/base.py")


class TestRawMatmulRule:
    def test_matmult_operator_flagged(self):
        violations = _check(
            RawMatmulRule(),
            """
            def kernel(a, b):
                return a @ b
            """,
            "repro/backends/vectorized.py",
        )
        assert len(violations) == 1
        assert "(+,x) ring" in violations[0].message

    def test_np_dot_flagged(self):
        violations = _check(
            RawMatmulRule(),
            """
            import numpy as np
            def kernel(a, b):
                return np.dot(a, b)
            """,
            "repro/sparse/spgemm.py",
        )
        assert len(violations) == 1

    def test_designated_helper_exempt(self):
        class Patched(RawMatmulRule):
            SEMIRING_FOLD_HELPERS = frozenset(
                {"repro/backends/vectorized.py::_plus_mul_fold"}
            )

        violations = _check(
            Patched(),
            """
            def _plus_mul_fold(a, b):
                return a @ b
            """,
            "repro/backends/vectorized.py",
        )
        assert violations == []

    def test_out_of_scope_dirs_unchecked(self):
        rule = RawMatmulRule()
        assert not rule.applies_to("repro/core/semiring.py")
        assert not rule.applies_to("repro/apps/linalg.py")


class TestLockDisciplineRule:
    def test_unlocked_access_flagged(self):
        violations = _check(
            LockDisciplineRule(),
            """
            class Trace:
                def __init__(self):
                    self.records = []
                def peek(self):
                    return self.records[-1]
            """,
            "repro/runtime/trace.py",
        )
        assert len(violations) == 1
        assert "outside" in violations[0].message
        assert violations[0].message.startswith("Trace.peek")

    def test_locked_access_clean(self):
        violations = _check(
            LockDisciplineRule(),
            """
            class Trace:
                def __init__(self):
                    self.records = []
                def peek(self):
                    with self._lock:
                        return self.records[-1]
            """,
            "repro/runtime/trace.py",
        )
        assert violations == []

    def test_init_exempt(self):
        violations = _check(
            LockDisciplineRule(),
            """
            class PlanCache:
                def __init__(self):
                    self._entries = {}
                    self._hits = 0
            """,
            "repro/compile/cache.py",
        )
        assert violations == []


class TestBackendResolutionRule:
    def test_literal_get_backend_flagged(self):
        violations = _check(
            BackendResolutionRule(),
            """
            def dispatch(ctx):
                impl = get_backend("sparse")
                return impl
            """,
            "repro/runtime/kernels.py",
        )
        assert len(violations) == 1
        assert "hardcodes a backend" in violations[0].message

    def test_literal_backend_comparison_flagged(self):
        violations = _check(
            BackendResolutionRule(),
            """
            def route(ctx):
                if ctx.backend == "emulate":
                    return slow_path()
                if ctx.backend != "vectorized":
                    return other_path()
            """,
            "repro/resilience/policy.py",
        )
        assert len(violations) == 2

    def test_variable_resolution_clean(self):
        violations = _check(
            BackendResolutionRule(),
            """
            def dispatch(ctx, chosen):
                impl = get_backend(chosen)
                return get_backend(ctx.backend)
            """,
            "repro/runtime/kernels.py",
        )
        assert violations == []

    def test_configuration_defaults_clean(self):
        # Backend names as *configuration* stay legal: constructor
        # keywords and dataclass field defaults are not dispatch.
        violations = _check(
            BackendResolutionRule(),
            """
            import dataclasses

            @dataclasses.dataclass
            class Policy:
                backend: str = "vectorized"

            def make_context():
                return ExecutionContext(backend="sparse")
            """,
            "repro/resilience/policy.py",
        )
        assert violations == []

    def test_scope_is_runtime_and_resilience(self):
        rule = BackendResolutionRule()
        assert rule.applies_to("repro/runtime/kernels.py")
        assert rule.applies_to("repro/resilience/policy.py")
        assert not rule.applies_to("repro/backends/base.py")
        assert not rule.applies_to("repro/plan/planner.py")


class TestSchedulerLoopRule:
    def test_loop_over_execute_compiled_flagged(self):
        violations = _check(
            SchedulerLoopRule(),
            """
            def replay(compiled, chunks, ctx):
                outs = []
                for a, b in chunks:
                    out, _ = execute_compiled(compiled, a, b, context=ctx)
                    outs.append(out)
                return outs
            """,
            "repro/runtime/kernels.py",
        )
        assert len(violations) == 1
        assert "LaunchGraph" in violations[0].message

    def test_while_loop_and_method_call_flagged(self):
        violations = _check(
            SchedulerLoopRule(),
            """
            def iterate(kernels, compiled, a, b, ctx):
                while not done(a):
                    a, _ = kernels.execute_compiled(compiled, a, b, context=ctx)
                return a
            """,
            "repro/runtime/closure.py",
        )
        assert len(violations) == 1

    def test_single_shot_call_clean(self):
        violations = _check(
            SchedulerLoopRule(),
            """
            def once(compiled, a, b, ctx):
                return execute_compiled(compiled, a, b, context=ctx)
            """,
            "repro/runtime/kernels.py",
        )
        assert violations == []

    def test_sched_package_exempt(self):
        rule = SchedulerLoopRule()
        assert not rule.applies_to("repro/sched/executor.py")
        assert rule.applies_to("repro/runtime/kernels.py")
        assert rule.applies_to("repro/resilience/policy.py")


class TestClockDisciplineRule:
    def test_raw_time_calls_flagged(self):
        violations = _check(
            ClockDisciplineRule(),
            """
            import time
            def timed(impl, compiled, a, b, ctx):
                start = time.perf_counter()
                out = impl.execute(compiled, a, b, None, context=ctx)
                return out, time.perf_counter() - start
            """,
            "repro/runtime/kernels.py",
        )
        assert len(violations) == 2
        assert "injectable Clock" in violations[0].message

    def test_raw_sleep_flagged(self):
        violations = _check(
            ClockDisciplineRule(),
            """
            import time
            def backoff(delay):
                time.sleep(delay)
            """,
            "repro/resilience/policy.py",
        )
        assert len(violations) == 1

    def test_from_time_import_flagged(self):
        violations = _check(
            ClockDisciplineRule(),
            """
            from time import sleep
            def backoff(delay):
                sleep(delay)
            """,
            "repro/resilience/policy.py",
        )
        assert len(violations) == 1
        assert "from time import" in violations[0].message

    def test_clock_module_exempt(self):
        rule = ClockDisciplineRule()
        assert not rule.applies_to("repro/resilience/clock.py")
        assert rule.applies_to("repro/runtime/kernels.py")
        assert rule.applies_to("repro/plan/autotune.py")

    def test_clock_protocol_calls_clean(self):
        violations = _check(
            ClockDisciplineRule(),
            """
            def timed(clock, impl, compiled, a, b, ctx):
                start = clock.now()
                clock.sleep(0.0)
                return impl.execute(compiled, a, b, None, context=ctx), clock.now() - start
            """,
            "repro/runtime/kernels.py",
        )
        assert violations == []


class TestImportLayeringRule:
    def test_upward_import_flagged(self):
        violations = _check(
            ImportLayeringRule(),
            "from repro.runtime.context import ExecutionContext\n",
            "repro/compile/lower.py",
        )
        assert len(violations) == 1
        assert "upward" in violations[0].message

    def test_downward_import_clean(self):
        violations = _check(
            ImportLayeringRule(),
            "from repro.isa.program import Program\n",
            "repro/runtime/kernels.py",
        )
        assert violations == []

    def test_equal_layer_cycle_allowed(self):
        violations = _check(
            ImportLayeringRule(),
            "from repro.hooks.pipeline import emit_event\n",
            "repro/runtime/closure.py",
        )
        assert violations == []

    def test_type_checking_guard_exempt(self):
        violations = _check(
            ImportLayeringRule(),
            """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.runtime.context import ExecutionContext
            """,
            "repro/compile/lower.py",
        )
        assert violations == []

    def test_function_local_import_exempt(self):
        violations = _check(
            ImportLayeringRule(),
            """
            def build():
                from repro.runtime.api import TileProgramBuilder
                return TileProgramBuilder
            """,
            "repro/compile/lower.py",
        )
        assert violations == []

    def test_stdlib_untouched(self):
        violations = _check(
            ImportLayeringRule(),
            "import threading\nimport numpy as np\n",
            "repro/core/semiring.py",
        )
        assert violations == []
