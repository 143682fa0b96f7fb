"""Sparse substrate: CSR, semiring spGEMM, 2:4 structured sparsity."""

from repro.sparse.csr import CsrMatrix, SparseError
from repro.sparse.spgemm import SpgemmStats, spgemm, spgemm_reference
from repro.sparse.structured import (
    GROUP,
    KEEP_PER_GROUP,
    Structured24Matrix,
    check_2_4,
    prune_2_4,
)
from repro.sparse.memory import RTX3080_MEMORY_BYTES, MemoryModel
from repro.sparse.closure import SparseClosureResult, elementwise_oplus, sparse_closure
from repro.sparse.density import EXACT_THRESHOLD, estimate_density

__all__ = [
    "CsrMatrix",
    "SparseError",
    "SpgemmStats",
    "spgemm",
    "spgemm_reference",
    "GROUP",
    "KEEP_PER_GROUP",
    "Structured24Matrix",
    "check_2_4",
    "prune_2_4",
    "RTX3080_MEMORY_BYTES",
    "MemoryModel",
    "SparseClosureResult",
    "elementwise_oplus",
    "sparse_closure",
    "EXACT_THRESHOLD",
    "estimate_density",
]
