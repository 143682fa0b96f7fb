"""Shared tiling/padding plan all dense backends execute against.

Padding to 16×16 tiles is backend-independent policy: operands are
quantised to the ring's input format once, straight from the caller's
dtype (as :func:`repro.core.ops.mmo` does), held in the accumulate dtype,
padded along ``k`` with the ring's absorbing pair
(``k_pad_a ⊗ k_pad_b == ⊕-identity``), an accumulator padded with the ⊕
identity (a launch without one gets none), and a degenerate ``k == 0``
turned into one fully-absorbed inner tile step.  Centralising the plan
here keeps every backend's tile grid — and therefore its
:class:`~repro.runtime.kernels.KernelStats` — identical by construction,
which is what the paper's statistics cross-check between backends relies
on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.precision import quantize_input
from repro.core.semiring import Semiring
from repro.core.tiles import TILE, ceil_div, crop, pad_to_tiles, padded_extent
from repro.runtime.kernels import KernelStats

__all__ = ["TilePlan", "partition_bands", "plan_mmo"]


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """Padded operands plus the tile grid they imply.

    ``c_pad`` is ``None`` when the launch has no ``C``: the backend then
    starts its output from the ⊕ identity itself, which is exactly what a
    padded identity accumulator would hold, so no accumulator is built.
    An operand that needed no padding is not copied — an aligned ``C``
    already in the output dtype *is* the caller's array — so backends
    only read the plan's operands.
    """

    a_pad: np.ndarray  # (tiles_m*16, tiles_k*16) in the output dtype
    b_pad: np.ndarray  # (tiles_k*16, tiles_n*16)
    c_pad: np.ndarray | None  # (tiles_m*16, tiles_n*16), None without C
    stats: KernelStats

    @property
    def tiles_m(self) -> int:
        return self.stats.tiles_m

    @property
    def tiles_n(self) -> int:
        return self.stats.tiles_n

    @property
    def tiles_k(self) -> int:
        return self.stats.tiles_k

    def crop(self, d_pad: np.ndarray) -> np.ndarray:
        """The ``(m, n)`` result of a freshly computed padded output.

        Copies only when padded rows or columns are dropped, so the result
        never pins the larger padded array; otherwise returns ``d_pad``.
        """
        m, n = self.stats.m, self.stats.n
        return d_pad if d_pad.shape == (m, n) else crop(d_pad, m, n).copy()


def _pad(matrix: np.ndarray, fill: float | bool) -> np.ndarray:
    """``matrix`` padded with ``fill`` to full tiles, copied only if padded.

    The counterpart of :meth:`TilePlan.crop`, which copies only when it
    crops: an aligned operand is handed on as it is.
    """
    rows, cols = matrix.shape
    if (padded_extent(rows), padded_extent(cols)) == (rows, cols):
        return matrix
    return pad_to_tiles(matrix, fill)


def plan_mmo(
    semiring: Semiring,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
) -> TilePlan:
    """Pad validated ``(m, k) × (k, n) [⊕ (m, n)]`` operands to full tiles.

    Callers must have validated shapes and ruled out empty outputs
    (``m > 0`` and ``n > 0``); ``k == 0`` is handled here by materialising
    one tile of absorbing inner steps, so every output-tile program runs
    at least one mmo instruction (the ``tiles_k`` convention of
    :class:`~repro.runtime.kernels.KernelStats`).  Without ``c`` the plan's
    ``c_pad`` is ``None`` and no accumulator is materialised.
    """
    m, k = a.shape
    n = b.shape[1]
    # Quantise once: an fp32 cast before the fp16 one would round twice.
    a_pad = _pad(
        quantize_input(a, semiring).astype(semiring.output_dtype), semiring.k_pad_a
    )
    b_pad = _pad(
        quantize_input(b, semiring).astype(semiring.output_dtype), semiring.k_pad_b
    )
    c_pad = (
        None
        if c is None
        else _pad(np.asarray(c, semiring.output_dtype), semiring.oplus_identity)
    )
    if k == 0:
        a_pad = np.full(
            (padded_extent(m), TILE), semiring.k_pad_a, semiring.output_dtype
        )
        b_pad = np.full(
            (TILE, padded_extent(n)), semiring.k_pad_b, semiring.output_dtype
        )

    tiles_m = a_pad.shape[0] // TILE
    tiles_k = a_pad.shape[1] // TILE
    tiles_n = b_pad.shape[1] // TILE
    stats = KernelStats(m, n, k, tiles_m, tiles_n, tiles_k)
    return TilePlan(a_pad=a_pad, b_pad=b_pad, c_pad=c_pad, stats=stats)


def partition_bands(
    extent: int, parts: int, *, tile: int = 1
) -> list[tuple[int, int]]:
    """Split ``[0, extent)`` into ``parts`` contiguous half-open bands.

    The one banding policy every partitioned dispatch shares: split-k
    partitions the inner dimension (``tile=1``) and the multi-device /
    banded-closure paths partition output rows on 16-row tile boundaries
    (``tile=TILE``).  Bands are floor-balanced — sizes differ by at most
    one ``tile`` unit — and returned in order, covering the extent
    exactly.  Bands may be empty (``start == stop``) when ``parts``
    exceeds the number of ``tile`` units; callers skip those rather than
    launching zero-width kernels.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    units = ceil_div(extent, tile) if extent else 0
    bounds = [min(extent, (i * units // parts) * tile) for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]
