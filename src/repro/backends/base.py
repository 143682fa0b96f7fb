"""Backend protocol + registry: the single dispatch seam for mmo launches.

The paper's point (Sections 5.1, 6.6) is that one ``D = C ⊕ (A ⊗ B)``
abstraction serves many execution substrates — CUDA cores, SIMD² units,
sparse spGEMM datapaths.  This module is that abstraction's seam, and it
is split the way the paper's programming model is: the compile layer
(:func:`repro.compile.lower.compile_mmo`) lowers a launch shape into one
immutable :class:`~repro.compile.artifact.CompiledMmo`, and a backend
only **executes** that artifact against validated operands.  Every
runtime entry point reaches the backend through :func:`get_backend`,
compiles through the context's :class:`~repro.compile.cache.PlanCache`,
and replays the artifact — so a closure loop relaunching one shape lowers
its warp program exactly once, whichever backends run it.

Built-in backends (``vectorized``, ``emulate``, ``sparse``) are imported
lazily on first registry access to keep ``import repro`` cheap and the
dependency direction one-way (backends import runtime/compile, never the
reverse at module level).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.runtime.api import RuntimeError_

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.compile.artifact import CompiledMmo
    from repro.core.semiring import Semiring
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendError",
    "capabilities_of",
    "capable_backends",
    "check_backend_capability",
    "get_backend",
    "list_backends",
    "register_backend",
]


class BackendError(RuntimeError_):
    """Unknown or conflicting backend registration/lookup."""


@dataclasses.dataclass(frozen=True)
class BackendCapabilities:
    """What a backend declares it can run, checked *before* dispatch.

    Replaces the scattered execute-time probing backends used to do
    (the sparse backend raised — or silently degraded — deep inside
    ``execute`` on rings whose ⊕ identity is not ⊗-absorbing).  The
    planner filters candidates by these declarations, and the dispatch
    seam rejects capability-violating explicit requests up front with a
    :class:`BackendError` naming the capable backends.

    ``rings`` is the frozen set of supported semiring names, or ``None``
    for "every ring" (the permissive default legacy backends get).
    ``accumulator`` says whether ``C ⊕`` launches are supported.
    ``thread_safe`` declares whether concurrent ``execute`` calls on one
    backend instance are safe; the :mod:`repro.sched` thread-pool
    executor serialises launches on backends that say ``False`` (the
    emulate backend stages operands through a shared device's memory)
    unless each launch carries its own device.
    """

    rings: frozenset[str] | None = None
    accumulator: bool = True
    thread_safe: bool = True

    def __post_init__(self) -> None:
        if self.rings is not None:
            object.__setattr__(self, "rings", frozenset(self.rings))

    def supports_ring(self, ring_name: str) -> bool:
        return self.rings is None or ring_name in self.rings

    def supports(self, ring_name: str, *, has_accumulator: bool = False) -> bool:
        if has_accumulator and not self.accumulator:
            return False
        return self.supports_ring(ring_name)


#: What a backend without a ``capabilities`` attribute claims: anything.
#: Legacy backends (registered before capabilities existed) keep
#: dispatching exactly as before.
PERMISSIVE_CAPABILITIES = BackendCapabilities()


def capabilities_of(backend: "Backend") -> BackendCapabilities:
    """The backend's declared capabilities (permissive when undeclared)."""
    caps = getattr(backend, "capabilities", None)
    return caps if isinstance(caps, BackendCapabilities) else PERMISSIVE_CAPABILITIES


def capable_backends(
    ring: "Semiring | str", *, has_accumulator: bool = False
) -> tuple[str, ...]:
    """Sorted names of registered backends that can run this launch."""
    ring_name = ring if isinstance(ring, str) else ring.name
    _ensure_builtins()
    return tuple(
        sorted(
            name
            for name, backend in _REGISTRY.items()
            if capabilities_of(backend).supports(
                ring_name, has_accumulator=has_accumulator
            )
        )
    )


def check_backend_capability(
    backend: "Backend", ring: "Semiring | str", *, has_accumulator: bool = False
) -> None:
    """Reject a launch the backend declared itself unable to run.

    Raises :class:`BackendError` naming the backends that *can* run the
    ring — the clear early error the sparse backend's execute-time
    probing never gave.
    """
    ring_name = ring if isinstance(ring, str) else ring.name
    if capabilities_of(backend).supports(ring_name, has_accumulator=has_accumulator):
        return
    capable = ", ".join(
        capable_backends(ring_name, has_accumulator=has_accumulator)
    ) or "none"
    what = f"the {ring_name} ring"
    if has_accumulator:
        what += " with an accumulator"
    raise BackendError(
        f"backend {backend.name!r} does not support {what}; "
        f"capable backends: {capable}"
    )


@runtime_checkable
class Backend(Protocol):
    """One way of executing a whole-matrix mmo.

    A backend is a ``name``, its ``capabilities`` and ``execute``, which
    receives the artifact :func:`repro.compile.lower.compile_mmo`
    lowered (the same for every backend, each consuming the parts it
    needs) plus operands that the dispatch layer has already validated
    (2-D, inner dimensions matching, ``C`` of shape ``(m, n)`` when
    present, ``m > 0`` and ``n > 0``, tile grid matching the artifact)
    and must return the ``(m, n)`` result in the ring's output dtype
    together with the launch's :class:`~repro.runtime.kernels
    .KernelStats`.  ``capabilities`` is optional: a backend that
    declares none claims every launch.
    """

    name: str
    capabilities: BackendCapabilities

    def execute(
        self,
        compiled: "CompiledMmo",
        a: "np.ndarray",
        b: "np.ndarray",
        c: "np.ndarray | None",
        *,
        context: "ExecutionContext",
    ) -> "tuple[np.ndarray, KernelStats]": ...


_REGISTRY: dict[str, Backend] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the built-in backend modules (each registers itself)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.backends import emulate, sparse, vectorized  # noqa: F401
    from repro.plan import backend as _auto  # noqa: F401 - registers "auto"


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register ``backend`` under ``backend.name``; returns it for chaining."""
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise BackendError(
            f"backend {backend!r} must expose a non-empty string 'name'"
        )
    if not callable(getattr(backend, "execute", None)):
        raise BackendError(
            f"backend {name!r} must implement an 'execute' method"
        )
    if name in _REGISTRY and not replace:
        raise BackendError(
            f"backend {name!r} already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend by registry name.

    Raises :class:`BackendError` (an ``RuntimeError_``) naming every
    registered backend — the one validation message all entry points share.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        registered = ", ".join(sorted(_REGISTRY))
        raise BackendError(
            f"unknown backend {name!r}; registered backends: {registered}"
        ) from None


def list_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))
