"""Floyd–Warshall-style all-pairs closures — the paper's GPU baselines.

The paper's baselines for the path-problem family are Floyd–Warshall
variants: plain CUDA-FW for MaxCP/MaxRP/MinRP and the phase-based *tiled*
Floyd–Warshall of ECL-APSP for APSP/APLP.  Both are reimplemented here from
scratch over arbitrary idempotent semirings:

- :func:`floyd_warshall` — the classic triple loop, vectorised per
  intermediate vertex;
- :func:`blocked_floyd_warshall` — the three-phase tiled formulation
  (diagonal block, row/column panels, remaining blocks), which is also the
  source of the baseline's *sequential phase structure* that the timing
  model charges for.

Blocked FW requires an idempotent ``⊕`` (min/max/or); both functions check.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring, SemiringError

__all__ = ["FwStats", "floyd_warshall", "blocked_floyd_warshall"]


@dataclasses.dataclass(frozen=True)
class FwStats:
    """Work/structure statistics of one Floyd–Warshall run.

    ``sequential_steps`` is the length of the dependency chain — the
    number of phases that must run one after another (the property that
    limits GPU utilisation of the baseline and motivates SIMD²).
    """

    num_vertices: int
    block: int
    sequential_steps: int
    element_updates: int


def _check_ring(ring: Semiring) -> Semiring:
    if not ring.is_idempotent():
        raise SemiringError(
            f"Floyd–Warshall requires an idempotent ⊕; semiring {ring.name!r} "
            "is not supported"
        )
    return ring


def _reject_nan(weights: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first NaN entry of ``weights``.

    The closure apps' shared guard: a NaN weight is neither an edge nor a
    non-edge, and a closure would spread it along every path through it.
    """
    nan = np.isnan(weights)
    if nan.any():
        i, j = np.argwhere(nan)[0]
        raise ValueError(f"edge weights must not be NaN (first NaN at [{i}, {j}])")


def _square_matrix(matrix: np.ndarray, ring: Semiring) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=ring.output_dtype).copy()
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SemiringError(f"Floyd–Warshall needs a square matrix, got {matrix.shape}")
    return matrix


def _two_hop(ring: Semiring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left ⊗ right`` where a ⊕-identity leg means "no path" and loses ⊕.

    This guards against IEEE artefacts on identity-encoded non-edges, e.g.
    ``inf + (-inf) = nan`` or ``(-inf)·(-inf) = +inf`` overtaking a max.
    """
    with np.errstate(invalid="ignore"):
        through = ring.otimes(left, right)
    through = np.asarray(through, dtype=ring.output_dtype)
    if not ring.is_boolean():
        identity = np.asarray(ring.oplus_identity, dtype=ring.output_dtype)
        missing = (left == identity) | (right == identity) | np.isnan(through)
        np.copyto(through, identity, where=missing)
    return through


def floyd_warshall(ring: Semiring | str, adjacency: np.ndarray) -> tuple[np.ndarray, FwStats]:
    """Classic FW closure: ``D[i,j] ← D[i,j] ⊕ (D[i,k] ⊗ D[k,j])`` for all k.

    The input diagonal should carry the problem's "self" value (0 for
    min-plus, 1 for the mul rings, True for or-and, ±inf for capacity).
    """
    ring = _check_ring(get_semiring(ring))
    dist = _square_matrix(adjacency, ring)
    n = dist.shape[0]
    for k in range(n):
        through_k = _two_hop(ring, dist[:, k : k + 1], dist[k : k + 1, :])
        dist = np.asarray(ring.oplus(dist, through_k), dtype=ring.output_dtype)
    stats = FwStats(
        num_vertices=n, block=1, sequential_steps=n, element_updates=n * n * n
    )
    return dist, stats


def blocked_floyd_warshall(
    ring: Semiring | str, adjacency: np.ndarray, *, block: int = 16
) -> tuple[np.ndarray, FwStats]:
    """Three-phase tiled FW (the ECL-APSP structure), over any idempotent ring.

    Per block-diagonal step ``kb``: (1) close the diagonal block, (2) update
    the row and column panels through it, (3) rank-``block`` update of every
    remaining block.  Phases within one ``kb`` and the ``kb`` steps
    themselves are sequentially dependent — 3·(n/block) sequential phases.
    """
    ring = _check_ring(get_semiring(ring))
    if block <= 0:
        raise SemiringError(f"block must be positive, got {block}")
    dist = _square_matrix(adjacency, ring)
    n = dist.shape[0]
    if n % block:
        # Pad to a block multiple with the ⊕ identity (no new paths).
        padded = int(np.ceil(n / block)) * block
        grown = np.full((padded, padded), ring.oplus_identity, dtype=ring.output_dtype)
        grown[:n, :n] = dist
        dist = grown
    nb = dist.shape[0] // block

    def rank_block_update(c_i, c_j, a_i, a_j, b_i, b_j) -> None:
        """dist[C] ← dist[C] ⊕ (dist[A] ⊗ dist[B]) for block coordinates."""
        rows = slice(c_i * block, (c_i + 1) * block)
        cols = slice(c_j * block, (c_j + 1) * block)
        a_rows = slice(a_i * block, (a_i + 1) * block)
        a_cols = slice(a_j * block, (a_j + 1) * block)
        b_rows = slice(b_i * block, (b_i + 1) * block)
        b_cols = slice(b_j * block, (b_j + 1) * block)
        c_block = dist[rows, cols]
        a_block = dist[a_rows, a_cols]
        b_block = dist[b_rows, b_cols]
        for k in range(block):
            through = _two_hop(ring, a_block[:, k : k + 1], b_block[k : k + 1, :])
            c_block = np.asarray(ring.oplus(c_block, through), dtype=ring.output_dtype)
            if (a_i, a_j) == (c_i, c_j):
                a_block = c_block
            if (b_i, b_j) == (c_i, c_j):
                b_block = c_block
        dist[rows, cols] = c_block

    for kb in range(nb):
        # Phase 1: the diagonal block closes over itself.
        rank_block_update(kb, kb, kb, kb, kb, kb)
        # Phase 2: panels through the diagonal block.
        for j in range(nb):
            if j != kb:
                rank_block_update(kb, j, kb, kb, kb, j)  # row panel
                rank_block_update(j, kb, j, kb, kb, kb)  # column panel
        # Phase 3: everything else gets a pure mmo update.
        for i in range(nb):
            if i == kb:
                continue
            for j in range(nb):
                if j == kb:
                    continue
                rank_block_update(i, j, i, kb, kb, j)

    stats = FwStats(
        num_vertices=n,
        block=block,
        sequential_steps=3 * nb,
        element_updates=dist.shape[0] ** 3,
    )
    return dist[:n, :n].copy(), stats
