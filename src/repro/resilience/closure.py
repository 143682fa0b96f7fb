"""Fault-tolerant semiring closure: the whole resilience stack in one call.

:func:`resilient_closure` is the end-to-end composition the paper-scale
graph workloads need: the Figure-7 iteration ``D ← D ⊕ (D ⊗ X)`` where
every mmo is ABFT-checked, detected corruption is retried, dead devices
are blacklisted and their row bands repartitioned across the survivors,
and a :class:`~repro.resilience.watchdog.ClosureWatchdog` guards the
iterates themselves.  Because ⊕-fold checksums verify each band against
its *inputs*, a recovered run is bit-identical to a fault-free run — the
property ``benchmarks/bench_resilience.py`` proves end to end.

Single-device callers get :func:`~repro.runtime.closure.closure`'s loop
with :func:`~repro.resilience.policy.resilient_mmo` (retry + backend
fallback) in place of the multi-device partitioner.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.resilience.faults import ResilienceError
from repro.resilience.policy import FallbackChain, RetryPolicy, resilient_mmo
from repro.resilience.watchdog import ClosureWatchdog
from repro.runtime.closure import ClosureResult, _iterate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.device import Simd2Device
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats
    from repro.runtime.multidevice import DeviceShare

__all__ = ["ResilientClosureResult", "resilient_closure"]


@dataclasses.dataclass(frozen=True)
class ResilientClosureResult(ClosureResult):
    """Outcome of a fault-tolerant closure iteration.

    A :class:`~repro.runtime.closure.ClosureResult` plus the recovery
    state: ``blacklist`` is the final set of failed device indices
    (empty for single-device runs); ``device_shares`` is the last
    iteration's partition, showing which surviving device owned which
    row band.
    """

    blacklist: frozenset[int] = frozenset()
    device_shares: "tuple[DeviceShare, ...]" = ()


def resilient_closure(
    ring: Semiring | str,
    adjacency: np.ndarray,
    *,
    method: str = "leyzorek",
    convergence_check: bool = True,
    max_iterations: int | None = None,
    devices: "list[Simd2Device] | None" = None,
    backend: str | None = None,
    context: "ExecutionContext | None" = None,
    checked: bool = True,
    retry: RetryPolicy | None = None,
    fallback: FallbackChain | None = None,
    on_device_failure: str = "repartition",
    blacklist: set[int] | None = None,
    watchdog: bool | ClosureWatchdog = True,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> ResilientClosureResult:
    """Iterate ``D ← D ⊕ (D ⊗ X)`` to a fixpoint, surviving faults.

    Shares :func:`~repro.runtime.closure.closure`'s iteration loop, and
    so its ``method`` schedules and semantics (``"blocked"`` included);
    this driver supplies only the loop's ``C ⊕ (A ⊗ B)`` launch.  With
    ``devices`` each launch is partitioned row-wise across them
    (:func:`~repro.runtime.multidevice.mmo_tiled_multi_device`) with
    ``checked`` bands and ``on_device_failure`` recovery; the
    ``blacklist`` set persists across launches, so a device that died
    in iteration 2 is never asked again in iteration 3.  Without
    ``devices`` each launch runs through
    :func:`~repro.resilience.policy.resilient_mmo` (retry + ``fallback``
    backend chain); bands never fall back, so passing ``fallback`` with
    ``devices`` raises :class:`~repro.resilience.faults.ResilienceError`.

    The ``watchdog`` observes every iterate; on a trip the loop stops
    with the structured diagnosis instead of burning the iteration cap.
    """
    from repro.runtime.context import resolve_context
    from repro.runtime.multidevice import mmo_tiled_multi_device

    if devices is not None and fallback is not None:
        raise ResilienceError(
            "resilient_closure: fallback= applies to single-device runs; "
            "devices= bands recover by retry and repartition — pass one "
            "of devices= or fallback=, not both"
        )
    ring = get_semiring(ring)
    ctx = resolve_context(context, backend=backend)
    blacklist = blacklist if blacklist is not None else set()
    shares: "tuple[DeviceShare, ...]" = ()

    def launch(
        a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, list[KernelStats]]:
        nonlocal shares
        # Launches skip ring-input validation: iterates may carry NaN/±inf
        # legitimately (fault studies, NaN fixpoints) — the watchdog and
        # ABFT checksums own in-loop poison detection.
        if devices is None:
            d, stats = resilient_mmo(
                ring, a, b, c,
                context=ctx, retry=retry, fallback=fallback,
                checked=checked, rtol=rtol, atol=atol,
                api="resilient_closure", validate_inputs=False,
            )
            launched = [stats]
        else:
            d, share_list = mmo_tiled_multi_device(
                ring, a, b, c,
                devices=devices, context=ctx,
                checked=checked, retry=retry,
                on_device_failure=on_device_failure,
                blacklist=blacklist, rtol=rtol, atol=atol,
                validate_inputs=False,
            )
            shares = tuple(share_list)
            launched = [share.stats for share in shares]
        return d, launched

    result = _iterate(
        ring, adjacency, launch,
        context=ctx, api="resilient_closure", method=method,
        convergence_check=convergence_check, max_iterations=max_iterations,
        watchdog=watchdog,
    )
    return ResilientClosureResult(
        **vars(result), blacklist=frozenset(blacklist), device_shares=shares
    )
