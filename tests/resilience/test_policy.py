"""Tests for retry policies, fallback chains, and resilient_mmo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SEMIRINGS, mmo
from repro.hw import Simd2Device
from repro.resilience import (
    BreakerBoard,
    BudgetExhausted,
    CorruptionDetected,
    ExecutionBudget,
    FallbackChain,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    Recovery,
    ResilienceError,
    ResilienceExhausted,
    RetryPolicy,
    VirtualClock,
    resilient_mmo,
)
from repro.runtime import RuntimeError_, Trace, mmo_tiled_multi_device, use_context
from tests.conftest import make_ring_inputs


class ResilientMmo:
    """``resilient_mmo``: walks the planner-ordered fallback chain."""

    has_fallback = True
    exhausted = ResilienceExhausted

    def run(self, a, b, ctx, **policy):
        result, _ = resilient_mmo("min-plus", a, b, context=ctx, **policy)
        return result

    def backends(self, a, b):
        return FallbackChain().plan(
            "vectorized", ring="min-plus", a=a, b=b, c=None
        )


class CheckedBand:
    """A one-device ``mmo_tiled_multi_device`` band under a checked recovery.

    Bands have no fallback chain, so a spent band re-raises its last
    failure instead of :class:`ResilienceExhausted`.
    """

    has_fallback = False
    exhausted = InjectedFault

    def run(self, a, b, ctx, **policy):
        result, _ = mmo_tiled_multi_device(
            "min-plus", a, b, devices=[Simd2Device()],
            context=ctx.replace(recovery=Recovery(**policy)),
        )
        return result

    def backends(self, a, b):
        return ("vectorized",)


#: Every entry point that reaches the launch-node recovery driver must
#: show the same retry, budget, backoff and breaker semantics.
DRIVERS = pytest.mark.parametrize(
    "driver", [ResilientMmo(), CheckedBand()], ids=["mmo", "band"]
)


class TestRetryPolicy:
    def test_negative_retries_rejected(self):
        with pytest.raises(ResilienceError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_attempt_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.max_attempts == 3
        corrupted = CorruptionDetected.__new__(CorruptionDetected)
        assert policy.should_retry(InjectedFault("x"), 0)
        assert policy.should_retry(InjectedFault("x"), 1)
        assert not policy.should_retry(InjectedFault("x"), 2)
        assert not policy.should_retry(ValueError("x"), 0)
        del corrupted

    def test_zero_retries_means_one_attempt(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1


class TestFallbackChain:
    def test_plan_starts_at_context_backend_and_dedups(self):
        chain = FallbackChain(backends=("vectorized", "emulate"))
        ones = np.ones((4, 4))
        launch = {"ring": "min-plus", "a": ones, "b": ones, "c": None}
        assert chain.plan("vectorized", **launch) == ("vectorized", "emulate")
        assert chain.plan("emulate", **launch) == ("emulate", "vectorized")
        assert chain.plan("sparse", **launch) == (
            "sparse", "vectorized", "emulate"
        )

    def test_should_fall_back_classification(self):
        chain = FallbackChain()
        assert chain.should_fall_back(InjectedFault("x"))
        assert not chain.should_fall_back(ValueError("x"))

    def test_default_chain_uses_planner_order(self, rng):
        chain = FallbackChain()  # backends=None -> planner-ranked
        a = rng.random((64, 64))
        order = chain.plan("emulate", ring="min-plus", a=a, b=a, c=None)
        assert order[0] == "emulate"
        assert set(order) == {"emulate", "vectorized", "sparse"}
        assert "auto" not in order  # planning backends never self-nominate

    def test_default_chain_capability_filters(self, rng):
        # The sparse backend cannot run plus-norm (its ⊕ identity is not
        # ⊗-absorbing), so the planner-ordered chain never routes there.
        a = rng.random((64, 64))
        order = FallbackChain().plan(
            "vectorized", ring="plus-norm", a=a, b=a, c=None
        )
        assert order[0] == "vectorized"
        assert "sparse" not in order

    def test_default_chain_is_density_aware(self, rng):
        sr = SEMIRINGS["min-plus"]
        dense = rng.random((128, 128))
        sparse_op = np.full((128, 128), np.inf)
        idx = rng.integers(0, 128, 60)
        sparse_op[idx, rng.integers(0, 128, 60)] = 1.0
        chain = FallbackChain()
        dense_order = chain.plan("emulate", ring=sr, a=dense, b=dense, c=None)
        sparse_order = chain.plan(
            "emulate", ring=sr, a=sparse_op, b=sparse_op, c=None
        )
        # Near-empty operands rank the sparse backend ahead of where it
        # lands for full operands.
        assert sparse_order.index("sparse") <= dense_order.index("sparse")


class TestResilientMmo:
    def test_clean_run_parity(self, ring, rng):
        a, b, c = make_ring_inputs(ring, 32, 16, 32, rng)
        checked = ring.name != "plus-norm" and not (
            ring.otimes is np.multiply and ring.oplus in (np.minimum, np.maximum)
        )
        d, _ = resilient_mmo(ring, a, b, c, checked=checked)
        np.testing.assert_array_equal(d, mmo(ring, a, b, c))

    def test_transient_corruption_recovered_by_retry(self, rng):
        a, b, c = make_ring_inputs(SEMIRINGS["min-plus"], 48, 16, 48, rng)
        trace = Trace()
        plan = FaultPlan(seed=2, corrupt={0: FaultSpec(kind="nan")})
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            d, _ = resilient_mmo("min-plus", a, b, c, context=ctx)
        np.testing.assert_array_equal(d, mmo("min-plus", a, b, c))
        summary = trace.summary()
        assert summary.retries == 1
        assert summary.corruptions_detected == 1
        assert summary.fallbacks == 0

    def test_persistent_failure_falls_back_to_next_backend(self, rng):
        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 32, 16, 32, rng, with_c=False)
        trace = Trace()
        # Drop the first three launches: the first backend's whole attempt
        # budget.  Launch 3 (first attempt on the fallback backend) is clean.
        plan = FaultPlan(drop=(0, 1, 2))
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            d, _ = resilient_mmo("min-plus", a, b, context=ctx)
        np.testing.assert_array_equal(d, mmo("min-plus", a, b))
        summary = trace.summary()
        assert summary.retries == 2
        assert summary.fallbacks == 1
        assert trace.events_of("fallback")[0].backend == "emulate"

    def test_exhaustion_raises_with_cause_chain(self, rng):
        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False)
        plan = FaultPlan(drop=range(100))
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            with pytest.raises(ResilienceExhausted) as excinfo:
                resilient_mmo("min-plus", a, b, context=ctx)
        names = [name for name, _ in excinfo.value.causes]
        # Planner-ordered chain: the context's backend first, then every
        # other capable backend in ranked (cheapest-first) order.
        assert names[0] == "vectorized"
        assert set(names) == {"vectorized", "sparse", "emulate"}
        assert all(isinstance(exc, InjectedFault) for _, exc in excinfo.value.causes)

    def test_non_recoverable_errors_propagate_immediately(self, rng):
        a = rng.random((16, 16))
        bad_b = rng.random((8, 16))  # shape mismatch: retrying cannot help
        plan = FaultPlan()
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            with pytest.raises(RuntimeError_, match="bad mmo operand shapes"):
                resilient_mmo("min-plus", a, bad_b, context=ctx)
        assert plan.launches_seen == 0

    @DRIVERS
    def test_retry_budget_is_respected(self, driver, rng):
        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False)
        plan = FaultPlan(drop=range(100))
        policy = RetryPolicy(max_retries=0)
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            with pytest.raises(driver.exhausted):
                driver.run(a, b, ctx, retry=policy)
        # one attempt per backend the entry point walks, no retries
        assert plan.launches_seen == len(driver.backends(a, b))

    @DRIVERS
    def test_empty_retry_on_never_retries(self, driver, rng):
        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False)
        trace = Trace()
        plan = FaultPlan(drop=(0,))
        with use_context(backend="vectorized", fault_plan=plan, trace=trace) as ctx:
            try:
                result = driver.run(a, b, ctx, retry=RetryPolicy(retry_on=()))
            except InjectedFault:
                assert not driver.has_fallback
            else:  # the dropped launch degraded to the next backend instead
                assert driver.has_fallback
                np.testing.assert_array_equal(result, mmo("min-plus", a, b))
        assert trace.events_of("retry") == []
        assert plan.launches_seen == (2 if driver.has_fallback else 1)

    @DRIVERS
    def test_retries_spend_the_context_budget(self, driver, rng):
        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False)
        budget = ExecutionBudget(max_retries=0)
        with use_context(
            backend="vectorized", fault_plan=FaultPlan(drop=(0,)), budget=budget
        ) as ctx:
            with pytest.raises(BudgetExhausted, match="retry budget of 0"):
                driver.run(a, b, ctx)
        assert budget.retries_spent == 1

    @DRIVERS
    def test_failures_feed_the_breaker(self, driver, rng):
        a, b, _ = make_ring_inputs(SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False)
        clock = VirtualClock()
        board = BreakerBoard(failure_threshold=1, clock=clock)
        with use_context(
            backend="vectorized", fault_plan=FaultPlan(drop=(0,)),
            breakers=board, clock=clock,
        ) as ctx:
            result = driver.run(a, b, ctx)
        np.testing.assert_array_equal(result, mmo("min-plus", a, b))
        # The retry's verified success arrives while the breaker is open:
        # a straggler proves nothing, so the breaker stays open.
        assert board.state_of("vectorized") == "open"


class TestErrorTaxonomy:
    """Satellite regression: permanent errors must never be retried."""

    def test_classify_buckets(self):
        from repro.compile.artifact import CompileError
        from repro.resilience import DeviceFailure, classify
        from repro.resilience.checksum import CorruptionDetected
        from repro.runtime.kernels import OperandValidationError

        assert classify(OperandValidationError("bad shapes")) == "permanent"
        assert classify(CompileError("no lowering")) == "permanent"
        assert classify(DeviceFailure(0, "device fell over")) == "transient"
        assert classify(InjectedFault("dropped")) == "transient"
        corrupt = CorruptionDetected.__new__(CorruptionDetected)
        assert classify(corrupt) == "transient"
        assert classify(ValueError("?")) == "unknown"

    def test_blanket_retry_on_still_refuses_permanent(self):
        from repro.compile.artifact import CompileError
        from repro.runtime.kernels import OperandValidationError

        greedy = RetryPolicy(max_retries=5, retry_on=(Exception,))
        assert not greedy.should_retry(OperandValidationError("x"), 0)
        assert not greedy.should_retry(CompileError("x"), 0)
        assert greedy.should_retry(InjectedFault("x"), 0)

    def test_blanket_fallback_on_still_refuses_permanent(self):
        from repro.runtime.kernels import OperandValidationError

        greedy = FallbackChain(
            backends=("vectorized", "emulate"), fallback_on=(Exception,)
        )
        assert not greedy.should_fall_back(OperandValidationError("x"))
        assert greedy.should_fall_back(InjectedFault("x"))

    @DRIVERS
    def test_greedy_policy_no_longer_burns_launches_on_caller_bugs(
        self, driver, rng
    ):
        # The original bug: a blanket retry_on retried shape-validation
        # errors, re-running the same rejection max_retries times.
        a = rng.random((16, 16))
        bad_b = rng.random((8, 16))
        plan = FaultPlan()
        policy = {"retry": RetryPolicy(max_retries=5, retry_on=(Exception,))}
        if driver.has_fallback:
            policy["fallback"] = FallbackChain(
                backends=("vectorized", "emulate"), fallback_on=(Exception,)
            )
        with use_context(backend="vectorized", fault_plan=plan) as ctx:
            with pytest.raises(RuntimeError_, match="bad mmo operand shapes"):
                driver.run(a, bad_b, ctx, **policy)
        assert plan.launches_seen == 0


class TestBackoff:
    def test_defaults_sleep_nothing(self):
        policy = RetryPolicy()
        assert policy.backoff_s(0) == 0.0
        assert policy.backoff_s(7) == 0.0

    def test_exponential_with_cap(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=5.0
        )
        assert policy.backoff_s(0) == 1.0
        assert policy.backoff_s(1) == 2.0
        assert policy.backoff_s(2) == 4.0
        assert policy.backoff_s(3) == 5.0  # capped

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(
            max_retries=4, backoff_base_s=1.0, jitter=0.5, seed=42
        )
        delays = [policy.backoff_s(n) for n in range(4)]
        replays = [policy.backoff_s(n) for n in range(4)]
        assert delays == replays  # pure function of (policy, attempt)
        for n, delay in enumerate(delays):
            base = min(1.0 * 2.0 ** n, policy.backoff_max_s)
            assert 0.5 * base <= delay <= 1.5 * base
        other = RetryPolicy(
            max_retries=4, backoff_base_s=1.0, jitter=0.5, seed=43
        )
        assert [other.backoff_s(n) for n in range(4)] != delays

    def test_bad_backoff_parameters_rejected(self):
        with pytest.raises(ResilienceError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ResilienceError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ResilienceError, match="jitter"):
            RetryPolicy(jitter=2.0)

    @DRIVERS
    def test_retry_sleeps_flow_through_the_context_clock(self, driver, rng):
        a, b, _ = make_ring_inputs(
            SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False
        )
        clock = VirtualClock()
        plan = FaultPlan(drop=(0, 1))
        policy = RetryPolicy(max_retries=2, backoff_base_s=1.0)
        with use_context(
            backend="vectorized", fault_plan=plan, clock=clock
        ) as ctx:
            result = driver.run(a, b, ctx, retry=policy)
        # Two retries: backoff slept 1s then 2s, all on the virtual clock.
        assert clock.sleeps == 2
        assert clock.slept_s == pytest.approx(3.0)
        np.testing.assert_array_equal(result, mmo("min-plus", a, b))

    @DRIVERS
    def test_backoff_sleeps_charged_against_the_deadline(self, driver, rng):
        from repro.resilience import DeadlineExceeded

        a, b, _ = make_ring_inputs(
            SEMIRINGS["min-plus"], 16, 16, 16, rng, with_c=False
        )
        clock = VirtualClock()
        budget = ExecutionBudget(deadline_s=2.5)
        plan = FaultPlan(drop=range(100))
        policy = RetryPolicy(max_retries=5, backoff_base_s=1.0)
        with use_context(
            backend="vectorized", fault_plan=plan, clock=clock, budget=budget
        ) as ctx:
            with pytest.raises(DeadlineExceeded):
                driver.run(a, b, ctx, retry=policy)
        # The second backoff (2s) would overrun the 2.5s deadline: only
        # the remaining allowance was slept, never past the deadline.
        assert clock.slept_s <= 2.5 + 1e-9
