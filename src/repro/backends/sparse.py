"""The sparse backend: whole-matrix mmo through Gustavson spGEMM.

The paper sketches a sparse SIMD² datapath (Section 6.5) that shares the
mmo abstraction with the dense units; SparseZipper (arXiv:2502.11353)
makes the same argument for matrix ISA extensions.  This backend proves
the registry seam carries it for free: operands are quantised with the
exact datapath rules, compressed to CSR with the ring's ⊕ identity as the
implicit value, multiplied row-wise under ``(⊕, ⊗)``, and densified back —
so ``mmo_tiled(..., backend="sparse")`` (or ``use_context(backend=
"sparse")``) routes any ring through :func:`repro.sparse.spgemm.spgemm`
with no call-site changes anywhere.

Compressing away the ⊕ identity is only sound when the identity is
⊗-absorbing (``identity ⊗ x == identity``), which holds for six of the
nine rings (e.g. ``0·x = 0`` for plus-mul, ``inf+x = inf`` for min-plus).
The rings where it fails — plus-norm (``(0-x)² = x²``), min-mul and
max-mul (``±inf`` times a negative flips sign) — are declared *out* of
this backend's :class:`~repro.backends.base.BackendCapabilities`, so the
dispatch seam rejects them up front naming the capable backends instead
of the old execute-time degradation (keeping every entry explicit, which
was just the dense computation with CSR overhead on top).  The check is
a numeric probe of the ring's operators, so newly registered rings
classify themselves.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import BackendCapabilities, register_backend
from repro.compile.artifact import CompiledMmo
from repro.core.precision import quantize_input, quantize_output
from repro.core.semiring import Semiring
from repro.runtime.context import ExecutionContext
from repro.runtime.kernels import KernelStats
from repro.sparse.csr import CsrMatrix
from repro.sparse.spgemm import spgemm

__all__ = ["SparseBackend", "absorbing_rings", "identity_absorbs"]

#: Probe values for the absorption check: a couple of ordinary magnitudes,
#: a negative (catches ``±inf`` sign flips in min-mul/max-mul) and zero
#: (catches ``inf·0 = nan``).
_NUMERIC_PROBES = (2.5, 0.75, -1.5, 0.0)


def identity_absorbs(ring: Semiring) -> bool:
    """True when ``identity ⊗ x == identity`` for all ``x`` (probed).

    Decides whether the ⊕ identity may be stored implicitly in CSR: an
    absorbing identity contributes nothing to any product, so dropping it
    is exact; a non-absorbing one (plus-norm, min-mul, max-mul) must stay
    explicit.
    """
    identity = np.asarray(ring.oplus_identity, dtype=ring.output_dtype)
    if ring.is_boolean():
        probes = np.asarray([True, False])
    else:
        probes = np.asarray(_NUMERIC_PROBES, dtype=ring.output_dtype)
    expected = np.full(probes.shape, identity, dtype=ring.output_dtype)
    with np.errstate(invalid="ignore"):
        left = np.asarray(ring.otimes(identity, probes), dtype=ring.output_dtype)
        right = np.asarray(ring.otimes(probes, identity), dtype=ring.output_dtype)
    return bool(
        np.array_equal(left, expected) and np.array_equal(right, expected)
    )


#: Memoised probe results by ring name (the capabilities property is read
#: on the dispatch hot path; probing costs a handful of tiny array ops).
_ABSORB_CACHE: dict[str, bool] = {}


def absorbing_rings() -> frozenset[str]:
    """Names of every registered ring whose ⊕ identity is ⊗-absorbing."""
    from repro.core.registry import SEMIRINGS

    names = []
    for name, ring in SEMIRINGS.items():
        cached = _ABSORB_CACHE.get(name)
        if cached is None:
            cached = _ABSORB_CACHE[name] = identity_absorbs(ring)
        if cached:
            names.append(name)
    return frozenset(names)


class SparseBackend:
    """Whole-matrix mmo as CSR × CSR spGEMM plus a dense ⊕ with C.

    Consumes only the opcode and tile grid of the compiled artifact —
    spGEMM has no warp program — but reports the artifact's grid in its
    :class:`KernelStats` so the dense/sparse statistics cross-check holds.
    """

    name = "sparse"

    @property
    def capabilities(self) -> BackendCapabilities:
        # Recomputed per read (memoised per ring) so rings registered
        # after import classify themselves, exactly like the old probe.
        return BackendCapabilities(rings=absorbing_rings())

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
        m, k = a.shape
        n = b.shape[1]
        # Quantise exactly like the dense datapath (fp16 inputs, fp32
        # accumulate) so results are comparable bit-for-bit where the fold
        # order allows.
        aq = quantize_input(a, semiring).astype(semiring.output_dtype)
        bq = quantize_input(b, semiring).astype(semiring.output_dtype)
        c_full = (
            semiring.full((m, n))
            if c is None
            else quantize_output(np.asarray(c), semiring)
        )

        # Non-absorbing rings are excluded by `capabilities`, so the ⊕
        # identity is always safe to store implicitly here.
        implicit: float | bool = semiring.oplus_identity
        a_csr = CsrMatrix.from_dense(aq, implicit=implicit)
        b_csr = CsrMatrix.from_dense(bq, implicit=implicit)
        product, sp_stats = spgemm(semiring, a_csr, b_csr)

        dense = product.to_dense_for(semiring)
        d = np.asarray(semiring.oplus(c_full, dense), dtype=semiring.output_dtype)

        tiles_m, tiles_n, tiles_k = compiled.grid
        stats = KernelStats(
            m, n, k, tiles_m, tiles_n, tiles_k, spgemm=sp_stats
        )
        return d, stats


register_backend(SparseBackend())
