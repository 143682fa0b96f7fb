"""Packed boolean matrices — the cuBool-style substrate for GTC.

The paper's GTC baseline (cuBool) stores boolean matrices one bit per
element and multiplies them with word-wide AND/popcount-free OR logic.
:class:`BitMatrix` holds that representation: rows packed into 64-bit
words in the layout of :func:`repro.core.ops.pack_rows`, with

- word-parallel ``multiply`` (or-and matrix product): row ``i`` of the
  result ORs the rows of B at the set bits of row ``i`` of A, 64 columns
  per word operation — the packed pass :func:`repro.core.ops.mmo` runs
  for or-and (:func:`repro.core.ops.or_and_words`),
- ``transitive_closure`` by repeated squaring with a convergence check,
- exact equivalence to the dense or-and semiring (tested), while using
  1/8th of `b8` storage.

This gives the repo a faithful model of *why* the cuBool baseline is
strong (word-level parallelism) — the effect the timing model's
`CUBOOL_SLOTS_PER_PAIR` constant prices.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.ops import or_and_words, pack_rows, unpack_rows
from repro.sparse.csr import SparseError

__all__ = ["BitMatrix"]

_WORD = 64


@dataclasses.dataclass
class BitMatrix:
    """A boolean matrix packed row-major into uint64 words."""

    shape: tuple[int, int]
    words: np.ndarray  # (rows, ceil(cols/64)) uint64

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise SparseError(f"bad shape {self.shape}")
        expected = (rows, math.ceil(cols / _WORD) if cols else 0)
        self.words = np.asarray(self.words, dtype=np.uint64)
        if self.words.shape != expected:
            raise SparseError(
                f"word array has shape {self.words.shape}, expected {expected}"
            )
        # Bits past the logical column count must stay clear (invariant).
        if cols % _WORD and self.words.size:
            tail_mask = np.uint64((1 << (cols % _WORD)) - 1)
            if np.any(self.words[:, -1] & ~tail_mask):
                raise SparseError("padding bits beyond the last column are set")

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise SparseError(f"expected a 2-D matrix, got shape {dense.shape}")
        if dense.dtype != np.dtype(bool):
            raise SparseError(f"expected a boolean matrix, got dtype {dense.dtype}")
        return cls(shape=dense.shape, words=pack_rows(dense))

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.shape[1])

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        # np.uint64 popcount via unpackbits on the byte view.
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def memory_bytes(self) -> int:
        return self.words.nbytes

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and other.shape == self.shape
            and np.array_equal(other.words, self.words)
        )

    # ------------------------------------------------------------------
    def multiply(self, other: "BitMatrix") -> "BitMatrix":
        """Or-and matrix product with word-parallel row ORs."""
        if self.shape[1] != other.shape[0]:
            raise SparseError(
                f"inner dimensions differ: {self.shape} x {other.shape}"
            )
        words = or_and_words(self.to_dense(), other.words)
        return BitMatrix(shape=(self.shape[0], other.shape[1]), words=words)

    def elementwise_or(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise SparseError(f"shape mismatch: {self.shape} vs {other.shape}")
        return BitMatrix(shape=self.shape, words=self.words | other.words)

    def transitive_closure(self, *, reflexive: bool = True) -> tuple["BitMatrix", int]:
        """Repeated squaring with a convergence check.

        Returns ``(closure, iterations)``.
        """
        rows, cols = self.shape
        if rows != cols:
            raise SparseError(f"closure needs a square matrix, got {self.shape}")
        current = self
        if reflexive:
            eye = BitMatrix.from_dense(np.eye(rows, dtype=bool))
            current = current.elementwise_or(eye)
        iterations = 0
        limit = max(1, math.ceil(math.log2(max(2, rows)))) + 1
        for _ in range(limit):
            squared = current.multiply(current)
            updated = current.elementwise_or(squared)
            iterations += 1
            if updated == current:
                break
            current = updated
        return current, iterations
