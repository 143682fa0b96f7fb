"""Compressed Sparse Row matrices, from scratch.

The sparse experiments (paper Section 6.5, Figures 13–14) need a CSR
substrate playing cuSparse's role: conversion, storage accounting, and a
semiring spGEMM.  This module implements CSR without scipy so the format
internals (indptr/indices/data) are explicit and the memory model can
reason about exact byte footprints.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["CsrMatrix", "SparseError"]


class SparseError(ValueError):
    """Raised on malformed CSR structures or shape mismatches."""


@dataclasses.dataclass
class CsrMatrix:
    """A CSR matrix: ``indptr`` (n_rows+1), ``indices`` and ``data`` (nnz).

    Column indices within each row are kept sorted and unique; explicit
    zeros are allowed (callers decide what "zero" means — for semiring
    work the implicit value is the ring's ⊕ identity).
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise SparseError(f"bad shape {self.shape}")
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data)
        if self.indptr.shape != (rows + 1,):
            raise SparseError(
                f"indptr has shape {self.indptr.shape}, expected {(rows + 1,)}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise SparseError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise SparseError(
                f"indices ({len(self.indices)}) and data ({len(self.data)}) "
                "lengths differ"
            )
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= cols
        ):
            raise SparseError("column index out of range")
        if len(self.indices) > 1:
            row_of = np.repeat(np.arange(rows, dtype=np.int64), np.diff(self.indptr))
            bad = np.flatnonzero(
                (np.diff(self.indices) <= 0) & (row_of[1:] == row_of[:-1])
            )
            if len(bad):
                raise SparseError(
                    f"row {int(row_of[bad[0] + 1])}: "
                    "column indices not strictly increasing"
                )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    @property
    def density(self) -> float:
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of implicit entries (the paper's x-axis in Fig 14)."""
        return 1.0 - self.density

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``i``."""
        if not (0 <= i < self.shape[0]):
            raise SparseError(f"row {i} out of range for shape {self.shape}")
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, *, implicit: float | bool = 0.0
    ) -> "CsrMatrix":
        """Compress a dense matrix, dropping entries equal to ``implicit``.

        ``implicit`` is the value not stored — 0 for ordinary matrices,
        the ⊕ identity (e.g. ``inf``) for semiring adjacency matrices.
        """
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise SparseError(f"expected a 2-D matrix, got shape {dense.shape}")
        if isinstance(implicit, float) and np.isnan(implicit):
            mask = ~np.isnan(dense)
        else:
            mask = dense != implicit
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        # Row-major flat indices split by divmod: the entries a 2-D
        # ``np.nonzero`` finds, several times faster.
        rows_idx, cols_idx = np.divmod(np.flatnonzero(mask), dense.shape[1])
        return cls(
            shape=dense.shape,
            indptr=indptr,
            indices=cols_idx,
            data=dense[rows_idx, cols_idx],
        )

    def to_dense(
        self, *, implicit: float | bool = 0.0, dtype: np.dtype | None = None
    ) -> np.ndarray:
        """Expand back to dense, filling implicit entries.

        The result uses the stored ``data`` dtype (empty matrices included,
        so empty and non-empty CSRs densify identically) unless ``dtype``
        overrides it.  For semiring matrices prefer :meth:`to_dense_for`,
        which picks the ring's ⊕ identity and output dtype.
        """
        out_dtype = np.dtype(dtype) if dtype is not None else self.data.dtype
        out = np.full(self.shape, implicit, dtype=out_dtype)
        if self.nnz:
            rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
            out[rows, self.indices] = self.data
        return out

    def to_dense_for(self, ring) -> np.ndarray:
        """Densify under a semiring: implicit entries become the ⊕ identity.

        ``ring`` is a :class:`~repro.core.semiring.Semiring` or its name.
        This is the correct way to densify semiring matrices — the implicit
        value is ``+inf`` for min-rings, ``-inf`` for max-rings, ``False``
        for or-and — and the result is returned in the ring's output dtype.
        """
        from repro.core.registry import get_semiring

        ring = get_semiring(ring)
        return self.to_dense(
            implicit=ring.oplus_identity, dtype=ring.output_dtype
        )

    # ------------------------------------------------------------------
    def memory_bytes(self, *, index_bytes: int = 4, value_bytes: int = 4) -> int:
        """Exact storage footprint of this CSR structure."""
        return (
            (self.shape[0] + 1) * index_bytes
            + self.nnz * index_bytes
            + self.nnz * value_bytes
        )

    def transpose(self) -> "CsrMatrix":
        """CSR of the transpose (a CSC view materialised as CSR).

        A stable sort by column keeps each column's entries in row order,
        which is exactly the cursor-walk order of the scalar construction.
        """
        rows, cols = self.shape
        indptr = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=cols), out=indptr[1:])
        row_of = np.repeat(np.arange(rows, dtype=np.int64), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        return CsrMatrix(
            shape=(cols, rows),
            indptr=indptr,
            indices=row_of[order],
            data=self.data[order],
        )
