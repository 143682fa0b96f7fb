"""Recovery is one context policy: every entry point recovers the same way.

Under ``ExecutionContext(recovery=Recovery(...))`` every entry point that
launches — ``mmo_tiled``, ``batched_mmo``, split-k, closure (Leyzorek and
blocked, one band or two), multi-device bands, and the ``resilient_*``
wrappers — runs its launches through the scheduler's one recovery driver.
So on serial and threaded schedulers alike:

- seeded drop and NaN-corruption schedules are recovered, bit for bit
  equal to the entry point's fault-free run;
- without a recovery the first drop raises :class:`InjectedFault`;
- a permanent error runs once and is never retried or fallen back on;
- launches that fall back under threads onto a backend that is not
  thread-safe run one at a time there;
- a checked launch on a ring without checksums raises before any attempt;
- a fault-free checked launch never flags on the eight rings that have
  checksums, continuous mixed-sign inputs included.

Stuck tiles and bitflips are left out on purpose: a value raised above an
idempotent fold's selection changes neither fold, so no checksum can see
it.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import zlib
from typing import Callable

import numpy as np
import pytest

from repro.backends import BackendCapabilities, get_backend, register_backend
from repro.backends.base import _REGISTRY
from repro.core import SEMIRINGS, Semiring
from repro.hooks import Hook
from repro.hw import Simd2Device
from repro.resilience import (
    BreakerBoard,
    ChecksumUnsupported,
    FallbackChain,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    Recovery,
    RetryPolicy,
    VirtualClock,
    resilient_closure,
    resilient_mmo,
)
from repro.runtime import (
    ExecutionContext,
    Trace,
    batched_mmo,
    closure,
    mmo_tiled,
    mmo_tiled_multi_device,
    mmo_tiled_split_k,
)
from repro.runtime.kernels import OperandValidationError
from repro.sched import SerialExecutor, ThreadPoolExecutor

RINGS = sorted(SEMIRINGS)
#: The rings ``closure`` iterates in both methods (blocked needs ⊕ idempotent).
CLOSURE_RINGS = ("max-min", "max-plus", "min-max", "min-plus", "or-and")
#: One shared pool: the worker threads start once for the whole module.
SCHEDULERS = {
    "serial": SerialExecutor(),
    "threaded": ThreadPoolExecutor(max_workers=2),
}


def has_checksums(ring: Semiring) -> bool:
    """Every ring but plus-norm, whose ⊗ does not distribute over ⊕."""
    return ring.name != "plus-norm"


def _operands(
    ring: Semiring, m: int, k: int, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Continuous mixed-sign operands (non-negative on min-mul/max-mul).

    Min-mul and max-mul checksums need non-negative operands: a negative
    multiplier flips the order ``·`` must preserve.
    """
    rng = np.random.default_rng(seed)
    if ring.is_boolean():
        return (
            rng.random((m, k)) < 0.4,
            rng.random((k, n)) < 0.4,
            rng.random((m, n)) < 0.2,
        )
    if ring.otimes is np.multiply and ring.oplus is not np.add:

        def draw(shape: tuple[int, int]) -> np.ndarray:
            return rng.uniform(0.0, 2.0, shape)

    else:
        draw = rng.standard_normal
    return draw((m, k)), draw((k, n)), draw((m, n))


def _adjacency(ring: Semiring, n: int, seed: int) -> np.ndarray:
    """A square matrix in the ring's closure encoding, paths fp16-exact."""
    rng = np.random.default_rng(seed)
    if ring.is_boolean():
        adj = rng.random((n, n)) < 0.05
        np.fill_diagonal(adj, True)
        return adj
    mask = rng.random((n, n)) < 0.05
    if ring.name == "max-plus":
        mask = np.triu(mask, k=1)  # longest paths need a DAG
    weights = rng.integers(1, 9, (n, n)).astype(float)
    adj = np.where(mask, weights, float(ring.oplus_identity))
    diag = {"min-plus": 0.0, "max-plus": 0.0, "max-min": np.inf}
    np.fill_diagonal(adj, diag.get(ring.name, -np.inf))
    return adj


def _mmo(ring, seed, ctx):
    a, b, c = _operands(ring, 24, 20, 24, seed)
    return mmo_tiled(ring, a, b, c, context=ctx)[0]


def _batched(ring, seed, ctx):
    items = [_operands(ring, 24, 20, 24, seed + i) for i in range(2)]
    a3, b3, c3 = (np.stack(stack) for stack in zip(*items))
    return batched_mmo(ring, a3, b3, c3, context=ctx)[0]


def _split_k(ring, seed, ctx):
    a, b, c = _operands(ring, 24, 40, 24, seed)
    return mmo_tiled_split_k(ring, a, b, c, splits=2, context=ctx)[0]


def _closure(method: str, bands: int):
    def run(ring, seed, ctx):
        adj = _adjacency(ring, 80, seed)
        return closure(ring, adj, method=method, bands=bands, context=ctx).matrix

    return run


def _multi_device(ring, seed, ctx):
    a, b, c = _operands(ring, 32, 16, 32, seed)
    devices = [Simd2Device(), Simd2Device()]
    return mmo_tiled_multi_device(
        ring, a, b, c, devices=devices, context=ctx.replace(backend="emulate")
    )[0]


def _resilient_mmo(ring, seed, ctx, **policy):
    a, b, c = _operands(ring, 24, 20, 24, seed)
    return resilient_mmo(ring, a, b, c, context=ctx, **policy)[0]


def _resilient_closure(ring, seed, ctx, **policy):
    adj = _adjacency(ring, 48, seed)
    return resilient_closure(ring, adj, context=ctx, **policy).matrix


@dataclasses.dataclass(frozen=True)
class Entry:
    run: Callable[..., np.ndarray]
    rings: tuple[str, ...]
    #: A ``resilient_*`` wrapper: it takes the policy as keywords and
    #: always recovers, so it has no unrecovered run to check.
    wrapper: bool = False
    #: Bands never fall back.
    falls_back: bool = True


ENTRIES = {
    "mmo_tiled": Entry(_mmo, tuple(RINGS)),
    "batched_mmo": Entry(_batched, tuple(RINGS)),
    "split_k": Entry(_split_k, tuple(RINGS)),
    "closure-leyzorek-1band": Entry(_closure("leyzorek", 1), CLOSURE_RINGS),
    "closure-leyzorek-2bands": Entry(_closure("leyzorek", 2), CLOSURE_RINGS),
    "closure-blocked-1band": Entry(_closure("blocked", 1), CLOSURE_RINGS),
    "closure-blocked-2bands": Entry(_closure("blocked", 2), CLOSURE_RINGS),
    "multi_device": Entry(_multi_device, tuple(RINGS), falls_back=False),
    "resilient_mmo": Entry(_resilient_mmo, tuple(RINGS), wrapper=True),
    "resilient_closure": Entry(_resilient_closure, CLOSURE_RINGS, wrapper=True),
}
GRID = [(entry, ring) for entry in ENTRIES for ring in ENTRIES[entry].rings]
UNWRAPPED = [(entry, ring) for entry, ring in GRID if not ENTRIES[entry].wrapper]


def _run(entry: str, ring: Semiring, seed: int, ctx, recovery: Recovery | None):
    """Run one entry point under ``recovery`` (``None``: a plain run).

    A wrapper takes the policy as keywords and always recovers, so its
    plain run is its run under ``recovery``.
    """
    spec = ENTRIES[entry]
    if spec.wrapper:
        return spec.run(
            ring, seed, ctx, checked=recovery.checked, retry=recovery.retry,
            fallback=recovery.fallback,
        )
    return spec.run(ring, seed, ctx.replace(recovery=recovery))


def _seed(*labels: str) -> int:
    return zlib.crc32("/".join(labels).encode())


def _context(scheduler: str, **fields) -> ExecutionContext:
    return ExecutionContext(
        backend="vectorized", scheduler=SCHEDULERS[scheduler], **fields
    )


def _launch_count(
    entry: str, ring: Semiring, seed: int, scheduler: str, recovery: Recovery
) -> int:
    """The fault-plan ordinals one fault-free run of the entry point claims."""
    plan = FaultPlan()
    _run(entry, ring, seed, _context(scheduler, fault_plan=plan), recovery)
    return plan.launches_seen


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("entry,ring_name", GRID)
def test_recovery_returns_the_fault_free_bits(entry, ring_name, scheduler):
    ring = SEMIRINGS[ring_name]
    seed = _seed(entry, ring_name)
    checked = has_checksums(ring)
    recovery = Recovery(checked=checked)
    plain = recovery if ENTRIES[entry].wrapper else None
    clean = _run(entry, ring, seed, _context(scheduler), plain)
    launches = _launch_count(entry, ring, seed, scheduler, recovery)
    # Two faults among the ordinals a clean run claims: every one is
    # reached, and no launch can fail all three of its default attempts.
    rng = np.random.default_rng(seed)
    first, second = (int(o) for o in rng.choice(max(launches, 2), 2, replace=False))
    if checked and not ring.is_boolean():
        plan = FaultPlan(seed=seed, drop=(first,), corrupt={second: FaultSpec("nan")})
    else:
        plan = FaultPlan(seed=seed, drop=(first, second))
    trace = Trace()
    ctx = _context(scheduler, fault_plan=plan, trace=trace)
    got = _run(entry, ring, seed, ctx, recovery)
    np.testing.assert_array_equal(got, clean)
    assert got.dtype == clean.dtype
    assert len(trace.events_of("fault_injected")) == 2
    assert trace.summary().retries == 2


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("entry,ring_name", UNWRAPPED)
def test_without_recovery_the_first_drop_raises(entry, ring_name, scheduler):
    ring = SEMIRINGS[ring_name]
    seed = _seed(entry, ring_name)
    launches = _launch_count(entry, ring, seed, scheduler, None)
    drop = int(np.random.default_rng(seed).integers(0, launches))
    plan = FaultPlan(seed=seed, drop=(drop,))
    with pytest.raises(InjectedFault, match=f"dropped launch {drop}"):
        _run(entry, ring, seed, _context(scheduler, fault_plan=plan), None)
    assert plan.injected_drops == 1


class RejectEveryLaunch(Hook):
    """A deterministic rejection at the execute seam: a permanent error."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def pre_execute(self, launch) -> None:
        self.calls.append(launch.api)  # list.append is atomic under threads
        raise OperandValidationError("rejected at the execute seam")


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_permanent_error_runs_once_and_is_never_retried(entry, scheduler):
    ring = SEMIRINGS["min-plus"]
    hook = RejectEveryLaunch()
    trace = Trace()
    ctx = _context(scheduler, trace=trace, hooks=(hook,))
    greedy = RetryPolicy(max_retries=5, retry_on=(Exception,))
    chain = (
        FallbackChain(backends=("vectorized", "emulate"), fallback_on=(Exception,))
        if ENTRIES[entry].falls_back else None
    )
    recovery = Recovery(checked=True, retry=greedy, fallback=chain)
    with pytest.raises(OperandValidationError, match="execute seam"):
        _run(entry, ring, _seed(entry), ctx, recovery)
    # Serially the first launch raises and nothing else starts; a threaded
    # graph runs each of its (at most two) launches once.
    assert 1 <= len(hook.calls) <= (1 if scheduler == "serial" else 2)
    assert trace.events_of("retry") == []
    assert trace.events_of("fallback") == []


class SerialOnly:
    """The vectorized kernel behind a backend that is not thread-safe.

    It counts how many of its launches overlap; each pauses so that two
    unserialised launches would.
    """

    name = "test-serial-only"
    capabilities = BackendCapabilities(thread_safe=False)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.running = 0
        self.peak = 0

    def execute(self, compiled, a, b, c, *, context):
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(0.002)
            return get_backend("vectorized").execute(compiled, a, b, c, context=context)
        finally:
            with self._lock:
                self.running -= 1


@pytest.fixture
def serial_only():
    backend = register_backend(SerialOnly())
    yield backend
    _REGISTRY.pop(backend.name, None)


@pytest.mark.parametrize("fallback", ["emulate", SerialOnly.name])
@pytest.mark.parametrize("entry", ["batched_mmo", "closure-leyzorek-2bands"])
def test_threaded_fallback_is_serialised_on_a_backend_that_is_not_thread_safe(
    entry, fallback, serial_only
):
    # An open vectorized breaker sends every launch of the graph straight
    # down the chain, so the threaded run's concurrent launches all land
    # on a backend that must run them one at a time.
    ring = SEMIRINGS["min-plus"]
    seed = _seed(entry, fallback)
    clean = _run(entry, ring, seed, ExecutionContext(backend=fallback), None)
    board = BreakerBoard(clock=VirtualClock())
    for _ in range(board.failure_threshold):
        board.record_failure("vectorized")
    serial_only.peak = 0
    trace = Trace()
    ctx = _context("threaded", breakers=board, trace=trace)
    chain = FallbackChain(backends=("vectorized", fallback))
    got = _run(entry, ring, seed, ctx, Recovery(checked=False, fallback=chain))
    np.testing.assert_array_equal(got, clean)
    assert {record.backend for record in trace.records} == {fallback}
    assert len(trace.events_of("breaker_open")) == len(trace.records) > 1
    # The counting backend saw its launches one at a time (emulate's run
    # never reaches it).
    assert serial_only.peak == (1 if fallback == SerialOnly.name else 0)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("ring_name", ["max-mul", "min-mul", "plus-norm"])
def test_a_ring_without_checksums_fails_before_any_attempt(ring_name, scheduler):
    # Plus-norm's ⊗ never distributes over ⊕, and min-mul's and max-mul's
    # do not on a negative operand: the checked launch raises before it
    # runs, so the scheduled drop of its first attempt is never reached.
    rng = np.random.default_rng(_seed(ring_name))
    a, b = rng.standard_normal((24, 20)), rng.standard_normal((20, 24))
    plan = FaultPlan(drop=(0,))
    ctx = _context(scheduler, fault_plan=plan, recovery=Recovery())
    with pytest.raises(ChecksumUnsupported):
        mmo_tiled(ring_name, a, b, context=ctx)
    assert plan.injected_drops == 0


@pytest.mark.parametrize(
    "shape", [(64, 48, 64), (128, 64, 128), (256, 64, 256), (256, 256, 256)]
)
@pytest.mark.parametrize(
    "ring_name", [name for name in RINGS if has_checksums(SEMIRINGS[name])]
)
def test_a_clean_checked_launch_never_flags(ring_name, shape):
    # One attempt, so a false positive raises CorruptionDetected.
    ring = SEMIRINGS[ring_name]
    m, k, n = shape
    ctx = ExecutionContext(recovery=Recovery(retry=RetryPolicy(max_retries=0)))
    for seed in range(2):
        a, b, c = _operands(ring, m, k, n, seed)
        for acc in (c, None):
            got, _ = mmo_tiled(ring, a, b, acc, context=ctx)
            np.testing.assert_array_equal(got, mmo_tiled(ring, a, b, acc)[0])
