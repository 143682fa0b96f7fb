"""K-Nearest Neighbours — the paper's add-norm (plus-norm) application.

Baseline: the KNN-CUDA structure — per-query squared-L2 distances computed
with an explicit difference-square-accumulate loop, then a top-k selection.
SIMD² version: the pairwise distance matrix is produced by the plus-norm
mmo (one ``D = C + Σ (A-B)²`` per tile pair) followed by the same
selection.  Neighbour ordering breaks ties by index so both versions are
deterministic and comparable.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.runtime.kernels import KernelStats, mmo_tiled

__all__ = ["KnnResult", "knn_baseline", "knn_simd2", "select_k_smallest"]

#: Rows per block of :func:`select_k_smallest`; bounds its temporaries.
_SELECT_ROWS = 256

#: Column groups whose minima bound a row's k-th value in
#: :func:`select_k_smallest` (at least ``k``, at most ``cols``).
_SELECT_GROUPS = 128


@dataclasses.dataclass(frozen=True)
class KnnResult:
    """Indices and distances of the k nearest references per query."""

    indices: np.ndarray  # (num_queries, k) reference indices
    distances: np.ndarray  # (num_queries, k) squared L2 distances
    kernel_stats: KernelStats | None = None


def _reject_non_finite(name: str, values: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``name`` and its first non-finite entry.

    The point apps' guard: a NaN or infinite coordinate has no distance to
    anything, and the mmo would answer with NaN distances, not an error.
    """
    bad = ~np.isfinite(values)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(
            f"{name} must be finite (first non-finite entry {values[index]} "
            f"at {list(index)})"
        )


def _validate(queries: np.ndarray, references: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    queries = np.asarray(queries, dtype=np.float64)
    references = np.asarray(references, dtype=np.float64)
    if queries.ndim != 2 or references.ndim != 2:
        raise ValueError("queries and references must be 2-D point arrays")
    if queries.shape[1] != references.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries {queries.shape[1]}-d, "
            f"references {references.shape[1]}-d"
        )
    if not (1 <= k <= references.shape[0]):
        raise ValueError(
            f"k={k} out of range for {references.shape[0]} reference points"
        )
    _reject_non_finite("queries", queries)
    _reject_non_finite("references", references)
    return queries, references


def select_k_smallest(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row k smallest entries, ties broken by lower index.

    Returns fresh ``(indices, values)`` arrays of shape ``(rows, k)``:
    ``intp`` column indices and values in the input dtype, sorted
    ascending within each row.  The result equals the first ``k`` columns
    of a stable argsort: equal values keep index order, and NaN sorts
    after every number, so a row with fewer than ``k`` numbers ends in
    its NaN entries in index order.

    Works on blocks of ``_SELECT_ROWS`` rows, so its temporaries stay
    small, in a few streaming passes per block:

    1. *Bound* each row's k-th value.  Split the columns into ``c =
       min(cols, max(k, _SELECT_GROUPS))`` disjoint strided groups
       (column ``j`` in group ``j % c``) and take each group's NaN-ignoring
       minimum (``np.fmin``).  The k smallest of those minima are k
       distinct entries, so the row's k-th value is at most the largest
       of them.
    2. *Fall back* where that bound is NaN: fewer than k groups hold a
       number.  Only those rows partition (``np.partition``) to their
       k-th value, which is NaN when the row holds fewer than k numbers;
       such a row keeps every entry.  A NaN-propagating minimum would
       send every row with a NaN to this fallback.
    3. *Keep* every entry at most its row's bound, in index order: one
       compare and ``np.flatnonzero`` over the block.
    4. Stable-sort only the kept entries (``np.lexsort``) and take the
       first ``k`` of each row.

    A row keeps about ``k`` entries, more only when many entries tie at
    or below the bound.  On ``knn_wide``'s 4096² distances (k=16, 17
    entries kept per row) that takes about 40 ms, against 119 ms for a
    partition of every row.  The worst case is a constant row, which keeps
    and sorts every entry: 79 ms for a constant 2048² matrix, against
    119 ms for the partition (one pinned CPU of a 2-CPU x86 VM, NumPy
    2.4).

    Raises ``ValueError`` unless ``distances`` is 2-D and ``1 <= k <=
    cols``.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ValueError(
            f"distances must be a 2-D (rows, cols) matrix, got shape {distances.shape}"
        )
    rows, cols = distances.shape
    if not (1 <= k <= cols):
        raise ValueError(f"k={k} out of range for {cols} columns")
    indices = np.empty((rows, k), dtype=np.intp)
    values = np.empty((rows, k), dtype=distances.dtype)
    groups = min(cols, max(k, _SELECT_GROUPS))
    width, tail = divmod(cols, groups)
    first_k = np.arange(k)
    for start in range(0, rows, _SELECT_ROWS):
        # C order: the group view and the flat indices below rely on it.
        block = np.ascontiguousarray(distances[start : start + _SELECT_ROWS])
        n = len(block)
        minima = np.fmin.reduce(
            block[:, : width * groups].reshape(n, width, groups), axis=1
        )
        np.fmin(minima[:, :tail], block[:, width * groups :], out=minima[:, :tail])
        bound = np.partition(minima, k - 1, axis=1)[:, k - 1]
        lost = np.flatnonzero(np.isnan(bound))
        bound[lost] = np.partition(block[lost], k - 1, axis=1)[:, k - 1]
        keep = block <= bound[:, None]
        keep[np.isnan(bound)] = True
        flat = np.flatnonzero(keep)
        row, col = np.divmod(flat, cols)  # row-major: index order within a row
        kept = block.ravel()[flat]
        order = np.lexsort((kept, row))  # stable: ties keep index order
        counts = np.bincount(row, minlength=n)
        pick = order[(np.cumsum(counts) - counts)[:, None] + first_k]
        indices[start : start + n] = col[pick]
        values[start : start + n] = kept[pick]
    return indices, values


def knn_baseline(queries: np.ndarray, references: np.ndarray, k: int) -> KnnResult:
    """Explicit difference-square-accumulate distances + top-k selection."""
    queries, references = _validate(queries, references, k)
    num_queries = queries.shape[0]
    num_refs = references.shape[0]
    q16 = queries.astype(np.float16).astype(np.float32)
    r16 = references.astype(np.float16).astype(np.float32)
    distances = np.zeros((num_queries, num_refs), dtype=np.float32)
    for qi in range(num_queries):
        diff = q16[qi][None, :] - r16  # (num_refs, dims)
        distances[qi] = np.sum(diff * diff, axis=1, dtype=np.float32)
    indices, values = select_k_smallest(distances, k)
    return KnnResult(indices=indices, distances=values)


def knn_simd2(
    queries: np.ndarray,
    references: np.ndarray,
    k: int,
    *,
    backend: str | None = None,
) -> KnnResult:
    """SIMD² KNN: plus-norm mmo distance matrix + top-k selection.

    The reference set is laid out one point per column (the mmo ``B``
    operand), exactly how the paper's kernel consumes it.
    """
    queries, references = _validate(queries, references, k)
    distances, stats = mmo_tiled(
        "plus-norm", queries, references.T, backend=backend
    )
    indices, values = select_k_smallest(distances, k)
    return KnnResult(indices=indices, distances=values, kernel_stats=stats)
