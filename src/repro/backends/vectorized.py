"""The CUDA-core analogue: vectorised NumPy semiring arithmetic.

Plays the role cuASR/CUTLASS plays in the paper's validation flow
(Section 5.1): a reference backend with identical padding and
mixed-precision rules that every other backend must agree with.

Of the compiled artifact this backend consumes only the opcode and the
tile grid — a whole-matrix NumPy kernel has no warp program to replay —
but it still reports the artifact's grid in its statistics, which is what
keeps the cross-backend statistics reconciliation exact.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import BackendCapabilities, register_backend
from repro.backends.tiling import plan_mmo
from repro.compile.artifact import CompiledMmo
from repro.core import ops as core_ops
from repro.runtime.context import ExecutionContext
from repro.runtime.kernels import KernelStats

__all__ = ["VectorizedBackend"]


class VectorizedBackend:
    """Whole-matrix mmo on the padded plan via :func:`repro.core.ops.mmo`."""

    name = "vectorized"
    capabilities = BackendCapabilities()

    def execute(
        self,
        compiled: CompiledMmo,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None,
        *,
        context: ExecutionContext,
    ) -> tuple[np.ndarray, KernelStats]:
        semiring = compiled.opcode.semiring
        plan = plan_mmo(semiring, a, b, c)
        # Without C, mmo starts its output from the ⊕ identity itself.
        d_pad = core_ops.mmo(semiring, plan.a_pad, plan.b_pad, plan.c_pad)
        return plan.crop(d_pad), plan.stats


register_backend(VectorizedBackend())
