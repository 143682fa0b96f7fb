"""Chaos soak: the full SLO stack under seeded fault schedules.

Standalone script (not a pytest benchmark), wired to ``make check-chaos``
and CI.  It drives the whole execution stack — budgets, deadlines,
backoff, cancellation, circuit breakers, brownout closures, threaded
scheduling, checked multi-device band retries — under
randomized-but-seeded fault schedules and tight deadlines, and holds
three gates:

1. **Typed termination** — every one of the ≥50 soak runs must end in a
   bit-correct result or a *typed* resilience error
   (:class:`DeadlineExceeded`, :class:`BudgetExhausted`,
   :class:`OperationCancelled`, :class:`ResilienceExhausted`, an
   injected fault, or a flagged brownout).  Any other exception — or a
   success whose bytes differ from the reference — fails the gate:
   no hangs, no silent corruption.
2. **Deterministic replay** — every seed is run twice; the outcome hash
   (result bytes, error type and message, breaker/budget snapshots)
   must be byte-identical.  All time flows through a
   :class:`VirtualClock`, so even backoff schedules replay exactly.
3. **Breaker effectiveness** — a hard-failing backend must stop being
   dispatched once its failure threshold trips (zero launches while
   open), and a half-open probe after the cooldown must restore it.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --out benchmarks/results/chaos.json             # artifact
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.backends import list_backends
from repro.core import SEMIRINGS, mmo
from repro.hooks.pipeline import Hook
from repro.hw import Simd2Device
from repro.resilience import (
    BreakerBoard,
    BudgetExhausted,
    CancellationToken,
    DeadlineExceeded,
    ExecutionBudget,
    FallbackChain,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    OperationCancelled,
    ResilienceExhausted,
    RetryPolicy,
    VirtualClock,
    resilient_closure,
    resilient_mmo,
)
from repro.runtime import Trace, use_context
from repro.runtime.batched import batched_mmo
from repro.runtime.closure import closure
from repro.sched import ThreadPoolExecutor

SEEDS = range(70)  # gate floor is 50 seeded runs
SCENARIOS = (
    "threaded_faults",
    "deadline_backoff",
    "recovery",
    "brownout",
    "cancellation",
    "breaker",
    "graph_retry",
)
#: Outcome labels that count as *typed* termination (gate 1).
TYPED_OUTCOMES = frozenset(
    {
        "success",
        "injected_fault",
        "deadline_exceeded",
        "budget_exhausted",
        "cancelled",
        "resilience_exhausted",
        "brownout",
    }
)


def _digest(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _array_hex(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _operands(seed: int, m: int = 24, k: int = 16, n: int = 24):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 9, size=(m, k)).astype(np.float64)
    b = rng.integers(0, 9, size=(k, n)).astype(np.float64)
    return a, b


def _adjacency(seed: int, n: int = 32) -> np.ndarray:
    rng = np.random.default_rng(seed)
    adj = rng.integers(1, 9, size=(n, n)).astype(np.float64)
    adj[rng.random((n, n)) < 0.6] = np.inf
    np.fill_diagonal(adj, 0.0)
    return adj


class CancelAfter(Hook):
    """Cancel the token once ``count`` launches have completed."""

    def __init__(self, token: CancellationToken, count: int, reason: str):
        self.token = token
        self.count = count
        self.reason = reason
        self._lock = threading.Lock()
        self._seen = 0

    def post_execute(self, launch) -> None:
        with self._lock:
            self._seen += 1
            if self._seen >= self.count:
                self.token.cancel(self.reason)


# ----------------------------------------------------------------------
# scenarios — each returns (outcome_label, detail_string)
# ----------------------------------------------------------------------
def threaded_faults(seed: int) -> tuple[str, str]:
    """Threaded batch under an injected drop: typed, serial-identical."""
    rng = np.random.default_rng(seed)
    batch = 4 + seed % 3
    a3 = np.stack([_operands(seed + i)[0] for i in range(batch)])
    b3 = np.stack([_operands(seed + i)[1] for i in range(batch)])
    drop = int(rng.integers(0, batch))
    surfaced = []
    for scheduler in (None, ThreadPoolExecutor(max_workers=2)):
        plan = FaultPlan(seed=seed, drop=(drop,))
        with use_context(
            backend="vectorized",
            fault_plan=plan,
            scheduler=scheduler,
            clock=VirtualClock(),
        ) as ctx:
            try:
                batched_mmo("min-plus", a3, b3, context=ctx)
                surfaced.append("success")
            except InjectedFault as exc:
                surfaced.append(f"{type(exc).__name__}: {exc}")
    if surfaced[0] != surfaced[1]:
        raise AssertionError(
            f"threaded error diverged from serial: {surfaced}"
        )
    return "injected_fault", surfaced[0]


def deadline_backoff(seed: int) -> tuple[str, str]:
    """Persistent drops under a tight deadline: backoff burns the clock."""
    a, b = _operands(seed)
    clock = VirtualClock()
    budget = ExecutionBudget(deadline_s=2.0 + seed % 3)
    policy = RetryPolicy(
        max_retries=8, backoff_base_s=0.5, jitter=0.3, seed=seed
    )
    with use_context(
        backend="vectorized",
        fault_plan=FaultPlan(seed=seed, drop=range(100)),
        clock=clock,
        budget=budget,
    ) as ctx:
        try:
            resilient_mmo(
                "min-plus", a, b, context=ctx, retry=policy,
                fallback=FallbackChain(backends=("vectorized", "emulate")),
            )
        except DeadlineExceeded as exc:
            return "deadline_exceeded", (
                f"{exc} slept={clock.slept_s:.9f} sleeps={clock.sleeps}"
            )
        except ResilienceExhausted as exc:
            return "resilience_exhausted", f"{exc} slept={clock.slept_s:.9f}"
    raise AssertionError("persistent drops cannot succeed")


def recovery(seed: int) -> tuple[str, str]:
    """Transient drop + corruption under a generous deadline: bit-correct."""
    a, b = _operands(seed)
    clock = VirtualClock()
    budget = ExecutionBudget(deadline_s=1000.0, max_retries=10)
    policy = RetryPolicy(
        max_retries=3, backoff_base_s=0.25, jitter=0.5, seed=seed
    )
    plan = FaultPlan(seed=seed, drop=(0,), corrupt={1: FaultSpec(kind="nan")})
    with use_context(
        backend="vectorized", fault_plan=plan, clock=clock, budget=budget
    ) as ctx:
        result, _ = resilient_mmo(
            "min-plus", a, b, context=ctx, retry=policy,
        )
    expected = mmo("min-plus", a, b)
    if not np.array_equal(result, expected):
        raise AssertionError("recovered result diverged from reference")
    return "success", f"{_array_hex(result)} slept={clock.slept_s:.9f}"


def brownout(seed: int) -> tuple[str, str]:
    """Budget-tripped closure degrades to a flagged partial fixpoint."""
    adj = _adjacency(seed)
    launches = 2 + seed % 3
    budget = ExecutionBudget(max_launches=launches)
    trace = Trace()
    with use_context(
        backend="vectorized",
        budget=budget,
        clock=VirtualClock(),
        trace=trace,
    ) as ctx:
        result = closure(
            "min-plus", adj, method="bellman-ford",
            convergence_check=False, context=ctx, on_budget="brownout",
        )
    if result.converged or result.diagnostics is None:
        raise AssertionError("brownout must be flagged, not silent")
    if result.diagnostics.reason != "budget_exhausted":
        raise AssertionError(f"wrong reason {result.diagnostics.reason!r}")
    # The partial fixpoint must equal the budgetless run cut at the same
    # iteration — partial, never corrupt.
    reference = closure(
        "min-plus", adj, method="bellman-ford",
        convergence_check=False, max_iterations=result.iterations,
    )
    if not np.array_equal(result.matrix, reference.matrix):
        raise AssertionError("brownout partial fixpoint diverged")
    if trace.summary().brownouts != 1:
        raise AssertionError("brownout must emit its trace event")
    return "brownout", (
        f"iters={result.iterations} {_array_hex(result.matrix)}"
    )


def cancellation(seed: int) -> tuple[str, str]:
    """Cooperative cancel at a seeded point: exact completed prefix."""
    batch = 6
    a3 = np.stack([_operands(seed + i)[0] for i in range(batch)])
    b3 = np.stack([_operands(seed + i)[1] for i in range(batch)])
    cancel_at = 1 + seed % 5
    token = CancellationToken()
    hook = CancelAfter(token, cancel_at, f"chaos seed {seed}")
    with use_context(
        backend="vectorized",
        cancel=token,
        hooks=(hook,),
        clock=VirtualClock(),
    ) as ctx:
        try:
            batched_mmo("min-plus", a3, b3, context=ctx)
        except OperationCancelled as exc:
            if exc.nodes_completed != tuple(range(cancel_at)):
                raise AssertionError(
                    f"completed {exc.nodes_completed} is not the "
                    f"{cancel_at}-prefix"
                ) from None
            return "cancelled", str(exc)
    raise AssertionError("cancel inside the batch must interrupt the run")


def breaker(seed: int) -> tuple[str, str]:
    """Hard-failing backend trips its breaker; a cooldown probe restores it.

    This is gate 3: while the breaker is open the sick backend gets
    **zero** dispatches, and the half-open probe brings it back.
    """
    a, b = _operands(seed)
    clock = VirtualClock()
    board = BreakerBoard(failure_threshold=3, cooldown_s=10.0, clock=clock)
    trace = Trace()
    plan = FaultPlan(seed=seed, drop=(0, 1, 2))  # vectorized hard-fails
    chain = FallbackChain(backends=("vectorized", "emulate"))
    with use_context(
        backend="vectorized",
        fault_plan=plan,
        breakers=board,
        clock=clock,
        trace=trace,
    ) as ctx:
        # Call 1 burns the three drops on vectorized, trips its breaker,
        # and degrades to the emulator.
        resilient_mmo(
            "min-plus", a, b, context=ctx,
            retry=RetryPolicy(max_retries=2), fallback=chain,
        )
        if board.state_of("vectorized") != "open":
            raise AssertionError("three failures must open the breaker")
        failures_before = trace.summary().backend_failures
        # Calls 2-3: the open breaker must skip vectorized outright.
        for _ in range(2):
            resilient_mmo("min-plus", a, b, context=ctx, fallback=chain)
        if trace.summary().backend_failures != failures_before:
            raise AssertionError(
                "open breaker still dispatched the failing backend"
            )
        if trace.summary().breaker_skips != 2:
            raise AssertionError("each skipped call must emit breaker_open")
        # Cooldown elapses; the drops are spent, so the half-open probe
        # succeeds and its verified result restores the backend.
        clock.advance(10.0)
        result, _ = resilient_mmo(
            "min-plus", a, b, context=ctx, fallback=chain
        )
        if board.state_of("vectorized") != "closed":
            raise AssertionError("successful probe must close the breaker")
    expected = mmo("min-plus", a, b)
    if not np.array_equal(result, expected):
        raise AssertionError("post-recovery result diverged from reference")
    snapshot = json.dumps(board.snapshot(), sort_keys=True)
    return "success", f"{_array_hex(result)} {snapshot}"


def graph_retry(seed: int) -> tuple[str, str]:
    """Checked multi-device closure: band retries back off and spend budget.

    Seeded NaN corruptions hit band launches; each is caught by the band's
    ABFT check and retried by the graph node's recovery driver, which
    backs off on the virtual clock and charges the context's retry
    budget.  A budget of fewer retries than hits ends in
    ``BudgetExhausted``; otherwise the closure is bit-correct.
    """
    rng = np.random.default_rng(seed)
    adj = _adjacency(seed)
    hits = rng.choice(6, size=2, replace=False)
    plan = FaultPlan(
        seed=seed, corrupt={int(o): FaultSpec(kind="nan") for o in hits}
    )
    clock = VirtualClock()
    budget = ExecutionBudget(max_retries=int(rng.integers(0, 3)))
    policy = RetryPolicy(
        max_retries=2, backoff_base_s=0.5, jitter=0.5, seed=seed
    )
    trace = Trace()
    with use_context(
        backend="vectorized",
        fault_plan=plan,
        clock=clock,
        budget=budget,
        trace=trace,
    ) as ctx:
        try:
            result = resilient_closure(
                "min-plus", adj, devices=[Simd2Device(), Simd2Device()],
                context=ctx, retry=policy,
            )
        except BudgetExhausted as exc:
            outcome, detail = "budget_exhausted", str(exc)
        else:
            if not np.array_equal(result.matrix, closure("min-plus", adj).matrix):
                raise AssertionError("recovered closure diverged from reference")
            outcome, detail = "success", _array_hex(result.matrix)
    retries = trace.summary().retries
    if plan.injected_corruptions == 0 or clock.sleeps != retries:
        raise AssertionError(
            f"{plan.injected_corruptions} corruptions, {retries} retries, "
            f"{clock.sleeps} backoff sleeps: every band retry must back off"
        )
    if budget.retries_spent != retries + (outcome == "budget_exhausted"):
        raise AssertionError("band retries must be charged to the budget")
    return outcome, f"{detail} retries={retries} slept={clock.slept_s:.9f}"


_SCENARIO_FNS = {
    "threaded_faults": threaded_faults,
    "deadline_backoff": deadline_backoff,
    "recovery": recovery,
    "brownout": brownout,
    "cancellation": cancellation,
    "breaker": breaker,
    "graph_retry": graph_retry,
}


def run_one(seed: int) -> dict:
    scenario = SCENARIOS[seed % len(SCENARIOS)]
    started = time.perf_counter()
    outcome, detail = _SCENARIO_FNS[scenario](seed)
    wall = time.perf_counter() - started
    return {
        "seed": seed,
        "scenario": scenario,
        "outcome": outcome,
        "hash": _digest(str(seed), scenario, outcome, detail),
        "wall_seconds": round(wall, 6),
    }


def soak(records: list[dict]) -> None:
    failures: list[str] = []
    for seed in SEEDS:
        record = run_one(seed)
        replay = run_one(record["seed"])
        record["replay_identical"] = replay["hash"] == record["hash"]
        records.append(record)
        if record["outcome"] not in TYPED_OUTCOMES:
            failures.append(
                f"seed {seed}: untyped outcome {record['outcome']!r}"
            )
        if not record["replay_identical"]:
            failures.append(f"seed {seed}: replay hash diverged")
    by_outcome: dict[str, int] = {}
    for record in records:
        by_outcome[record["outcome"]] = by_outcome.get(record["outcome"], 0) + 1
    print(f"chaos   {len(records)} seeded runs, outcomes: "
          + ", ".join(f"{k}={v}" for k, v in sorted(by_outcome.items())))
    replay_ok = sum(1 for r in records if r["replay_identical"])
    print(f"chaos   replay: {replay_ok}/{len(records)} byte-identical")
    if len(records) < 50:
        failures.append(f"only {len(records)} runs; the gate floor is 50")
    if failures:
        raise SystemExit("chaos gate failed:\n  " + "\n  ".join(failures))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    soak(records)

    artifact = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": list(list_backends()),
        "seeds": len(records),
        "scenarios": list(SCENARIOS),
        "records": records,
    }
    payload = json.dumps(artifact, indent=2)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
