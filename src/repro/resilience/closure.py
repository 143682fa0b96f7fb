"""Fault-tolerant semiring closure: the whole resilience stack in one call.

:func:`resilient_closure` is the end-to-end composition the paper-scale
graph workloads need: the Figure-7 iteration ``D ← D ⊕ (D ⊗ X)`` where
every mmo is ABFT-checked, detected corruption is retried, dead devices
are blacklisted and their row bands repartitioned across the survivors,
and a :class:`~repro.resilience.watchdog.ClosureWatchdog` guards the
iterates themselves.  Because ⊕-fold checksums verify each band against
its *inputs*, a recovered run is bit-identical to a fault-free run — the
property ``benchmarks/bench_resilience.py`` proves end to end.

A single-device run is :func:`~repro.runtime.closure.closure` itself
under a context :class:`~repro.resilience.policy.Recovery` (retry plus
backend fallback); a multi-device run is closure's loop with the
multi-device partitioner as its launch, under the same policy.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.resilience.policy import FallbackChain, Recovery, RetryPolicy
from repro.resilience.watchdog import ClosureWatchdog
from repro.runtime.closure import ClosureResult, _iterate, closure
from repro.runtime.context import resolve_context
from repro.runtime.multidevice import mmo_tiled_multi_device

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

    Every launch runs under a context :class:`~repro.resilience.policy
    .Recovery` of ``checked``, ``retry``, ``fallback``, ``rtol`` and
    ``atol``, and closure's iteration loop supplies the ``method``
    schedules and semantics (``"blocked"`` included).  Without
    ``devices`` the call is :func:`~repro.runtime.closure.closure` under
    that recovery, falling back down the planner-ordered
    :class:`~repro.resilience.policy.FallbackChain` when ``fallback`` is
    ``None``; its launch records and events carry ``api="closure"``.
    With ``devices`` each launch is partitioned row-wise across them
    (:func:`~repro.runtime.multidevice.mmo_tiled_multi_device`) with
    ``on_device_failure`` recovery; the ``blacklist`` set persists across
    launches, so a device that died in iteration 2 is never asked again
    in iteration 3.  Bands never fall back, so passing ``fallback`` with
    ``devices`` raises :class:`~repro.resilience.faults.ResilienceError`
    before any launch.

    The ``watchdog`` observes every iterate; on a trip the loop stops
    with the structured diagnosis instead of burning the iteration cap.
    Launches skip ring-input validation: iterates may carry NaN/±inf
    legitimately (fault studies, NaN fixpoints), and the watchdog and
    ABFT checksums own in-loop poison detection.
    """
    ring = get_semiring(ring)
    if devices is None and fallback is None:
        fallback = FallbackChain()
    recovery = Recovery(
        checked=checked, retry=retry, fallback=fallback, rtol=rtol, atol=atol
    )
    ctx = resolve_context(context, backend=backend).replace(recovery=recovery)
    if devices is None:
        result = closure(
            ring, adjacency, method=method,
            convergence_check=convergence_check, max_iterations=max_iterations,
            context=ctx, watchdog=watchdog,
        )
        return ResilientClosureResult(**vars(result))

    blacklist = blacklist if blacklist is not None else set()
    shares: "tuple[DeviceShare, ...]" = ()

    def launch(
        a: np.ndarray, b: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, list[KernelStats]]:
        nonlocal shares
        d, share_list = mmo_tiled_multi_device(
            ring, a, b, c,
            devices=devices, context=ctx,
            on_device_failure=on_device_failure, blacklist=blacklist,
            validate_inputs=False,
        )
        shares = tuple(share_list)
        return d, [share.stats for share in shares]

    result = _iterate(
        ring, adjacency, launch,
        context=ctx, api="resilient_closure", method=method,
        convergence_check=convergence_check, max_iterations=max_iterations,
        watchdog=watchdog,
    )
    return ResilientClosureResult(
        **vars(result), blacklist=frozenset(blacklist), device_shares=shares
    )
