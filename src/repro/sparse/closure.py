"""Sparse semiring closure — the paper's "SIMD² GAMMA" extension (§6.5).

For extremely sparse graphs the paper proposes pairing the SIMD² idea with
a GAMMA-class spGEMM accelerator: the same ``D = C ⊕ (A ⊗ B)`` iteration,
but over compressed operands with one configurable ⊗ ALU and one ⊕ ALU per
PE ("this SIMD² GAMMA accelerator would then be able to run APSP on sparse
graphs").  This module implements that functionally: closure iteration over
CSR matrices using the row-wise semiring spGEMM, with the same
Bellman-Ford / Leyzorek / convergence-check policies as the dense runtime.

The implicit value of all CSR operands is the ring's ⊕ identity, so the
sparse closure is exactly equivalent to the dense closure on
``csr.to_dense_for(ring)`` — asserted by the tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring, SemiringError
from repro.runtime.closure import _iteration_limit
from repro.sparse.csr import CsrMatrix
from repro.sparse.spgemm import SpgemmStats, _merge_by_column, spgemm

__all__ = ["SparseClosureResult", "sparse_closure", "elementwise_oplus"]


@dataclasses.dataclass(frozen=True)
class SparseClosureResult:
    """Outcome of a sparse closure iteration."""

    matrix: CsrMatrix
    iterations: int
    converged: bool
    method: str
    total_products: int
    spgemm_stats: tuple[SpgemmStats, ...]

    @property
    def final_nnz(self) -> int:
        return self.matrix.nnz


def elementwise_oplus(ring: Semiring | str, a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Sparse ``A ⊕ B``: union of patterns, ⊕ on overlaps.

    Implicit entries are the ⊕ identity, so they never change the other
    operand's values — the sparse analogue of the accumulate path.
    """
    ring = get_semiring(ring)
    if a.shape != b.shape:
        raise SemiringError(f"shape mismatch: {a.shape} vs {b.shape}")
    identity = np.asarray(ring.oplus_identity, dtype=ring.output_dtype)
    rows = a.shape[0]
    indptr = np.zeros(rows + 1, dtype=np.int64)
    indices_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    a_data = np.asarray(a.data, dtype=ring.output_dtype)
    b_data = np.asarray(b.data, dtype=ring.output_dtype)
    for i in range(rows):
        a_lo, a_hi = a.indptr[i], a.indptr[i + 1]
        b_lo, b_hi = b.indptr[i], b.indptr[i + 1]
        if a_lo == a_hi and b_lo == b_hi:
            indptr[i + 1] = indptr[i]
            continue
        # A's entries first, then B's — the ⊕-fold order of the original
        # dict-based merge — then a stable column merge (see spgemm).
        cat_cols = np.concatenate((a.indices[a_lo:a_hi], b.indices[b_lo:b_hi]))
        cat_vals = np.concatenate((a_data[a_lo:a_hi], b_data[b_lo:b_hi]))
        cols, vals = _merge_by_column(ring, cat_cols, cat_vals)
        keep = vals != identity
        cols, vals = cols[keep], vals[keep]
        indices_parts.append(cols)
        data_parts.append(vals)
        indptr[i + 1] = indptr[i] + len(cols)
    return CsrMatrix(
        shape=a.shape,
        indptr=indptr,
        indices=np.concatenate(indices_parts) if indices_parts else np.empty(0, np.int64),
        data=(
            np.concatenate(data_parts)
            if data_parts
            else np.empty(0, ring.output_dtype)
        ),
    )


def _equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def sparse_closure(
    ring: Semiring | str,
    adjacency: CsrMatrix,
    *,
    method: str = "leyzorek",
    convergence_check: bool = True,
    max_iterations: int | None = None,
) -> SparseClosureResult:
    """Iterate ``D ← D ⊕ (D ⊗ X)`` over CSR operands under ``ring``.

    Same contract as :func:`repro.runtime.closure.closure` with the dense
    matrix replaced by a :class:`~repro.sparse.csr.CsrMatrix` whose
    implicit value is the ring's ⊕ identity.  Only the Leyzorek and
    Bellman-Ford policies are implemented over CSR.
    """
    ring = get_semiring(ring)
    if method == "blocked":
        raise SemiringError("sparse_closure supports leyzorek and bellman-ford only")
    limit = _iteration_limit(
        method, adjacency.shape, convergence_check, max_iterations
    )

    current = adjacency
    base = adjacency
    converged = False
    iterations = 0
    total_products = 0
    all_stats: list[SpgemmStats] = []
    for _ in range(limit):
        operand = current if method == "leyzorek" else base
        product, stats = spgemm(ring, current, operand)
        updated = elementwise_oplus(ring, current, product)
        all_stats.append(stats)
        total_products += stats.products
        iterations += 1
        if convergence_check and _equal(updated, current):
            converged = True
            current = updated
            break
        current = updated

    return SparseClosureResult(
        matrix=current,
        iterations=iterations,
        converged=converged,
        method=method,
        total_products=total_products,
        spgemm_stats=tuple(all_stats),
    )
