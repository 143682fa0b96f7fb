"""Execution backends for the whole-matrix mmo — one seam, many substrates.

``apps → runtime → compile → backends → hw/isa``: the runtime dispatch
layer (:func:`repro.runtime.kernels.mmo_tiled`) resolves a backend name
through the registry here, compiles the launch into a
:class:`~repro.compile.artifact.CompiledMmo` (through the plan cache),
and hands the artifact plus validated operands to the backend's
``execute``.  Built-ins:

- ``"vectorized"`` — NumPy semiring arithmetic (the CUDA-core analogue),
- ``"emulate"``    — per-tile warp programs on the Simd2Device emulator,
- ``"sparse"``     — Gustavson spGEMM over CSR operands,
- ``"auto"``       — the planning stage (:mod:`repro.plan`): ranks the
  capable backends per launch and dispatches to the winner.

Each backend declares :class:`BackendCapabilities` (which rings it can
run, whether it accepts an accumulator, its density preference); the
dispatch seam rejects capability-violating explicit requests up front
and the planner filters candidates by the same declarations.

Register your own with :func:`register_backend`; every entry point and
the registry-driven parity suite pick it up automatically.
"""

from repro.backends.base import (
    Backend,
    BackendCapabilities,
    BackendError,
    capabilities_of,
    capable_backends,
    check_backend_capability,
    get_backend,
    list_backends,
    register_backend,
)

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
