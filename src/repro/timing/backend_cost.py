"""Substrate wall-time prices, one per execution backend and ring.

The GPU-analytic model in :mod:`repro.timing.costmodel` prices the
*paper's* hardware; the planner (:mod:`repro.plan`) needs something
different — a price for this repository's own execution substrates, so a
cold autotune table can still rank ``vectorized`` against ``sparse``
against ``emulate`` for a concrete launch.  This module is that price
list, behind one interface::

    estimate(backend_name, LaunchSpec(ring, m, n, k, density_a=..., density_b=...))
        -> seconds

As the paper prices every MMO opcode differently (FMA fusion makes
plus-mul cheap, the min/max structural hazard makes min-max dear), a
price here is per backend *and* per ring: a sum of terms, each a count
the backend's code scales with (:func:`terms`), times a coefficient
fitted for that ``(backend, ring)`` pair:

- **vectorized** (:mod:`repro.backends.vectorized`, on the padded
  operands) — a per-launch constant, the entries of A (each quantised,
  and each one inner step of one output row: a call of the ufunc's inner
  loop) and of B, the output entries, and the work of the loop
  :func:`repro.core.ops.kernel_loop` says :func:`~repro.core.ops.mmo`
  runs.  The streaming loop's is its ``(i, k, j)`` pairs, split three
  ways: one broadcast-and-reduce, the streamed rank-1 updates under
  NumPy's default ufunc buffer, or the same updates under the row-sized
  buffer.  Or-and's packed loop gathers one table row per key, at the
  key width the kernel picks for the expected set bits
  ``m·k·density_a`` (:func:`repro.core.ops._key_width`): per set bit of
  A, where the table is B's packed rows, or per nonzero byte of A, after
  building byte tables of 256 rows per group of 8 B rows.  Its price
  counts those keys, their 64-bit words and the tables' words, so it
  grows with A's density until byte tables take over and then levels
  off.  The price models the streaming loop even where ``mmo`` skips it:
  a plus-mul or plus-norm launch whose values pass the exactness
  certificate runs as one sgemm, several times cheaper, but a price sees
  only shapes and densities.  So ``auto``
  over-prices certified launches, and on plus-mul, which the sparse
  backend also runs, that tilts the sparse/dense choice toward spGEMM;
- **sparse** (:mod:`repro.backends.sparse`, Gustavson spGEMM) — a
  per-launch constant, the dense entries quantised, compressed,
  densified and ⊕-ed with C, the expected A rows the row loop touches,
  one B-row slice gathered per A nonzero, the expected ⊗ products
  (``m·n·k·density_a·density_b``), and the share of them whose column the
  other slices of the row mostly lack (``products·(1 − density_b)``).
  Each row's products are sorted by column: slices of dense B rows hold
  nearly the same columns and merge in a regular order, slices of sparse
  ones interleave at random, and sorting those costs several times more
  per product on this substrate;
- **emulate** (the instruction-level device) — a per-launch constant,
  the output tiles staged, and the tile steps whose warp programs it
  replays.

The coefficients live in the generated module
:mod:`repro.timing.backend_cost_fit`.  ``tools/fit_backend_cost.py``
writes it: one non-negative least-squares fit per ``(backend, ring)``,
weighted by relative error, over a committed sweep of ``impl.execute``
wall times — the quantity
:class:`~repro.plan.autotune.AutotuneHook` records, so a cold price and an
observed one compare like for like in the planner.  ``--measure``
re-measures the sweep on the current host first.  Prices are in this
host's seconds; other hosts differ in scale, and the autotune table
refines the ranking online.

A backend or ring no fit covers prices at :data:`UNKNOWN_COST_S`
(infinite), so a custom registered backend ranks behind every fitted one
until the autotune table observes it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.ops import _key_width, _nonzero_bytes, kernel_loop
from repro.core.registry import get_semiring
from repro.core.tiles import TILE, tile_counts
from repro.timing.backend_cost_fit import COEFFICIENTS

__all__ = [
    "CostModelError",
    "LaunchSpec",
    "TERMS",
    "UNKNOWN_COST_S",
    "estimate",
    "terms",
]

#: Price of a backend nothing knows how to estimate: ranks last, always.
UNKNOWN_COST_S = float("inf")


class CostModelError(ValueError):
    """Invalid launch spec."""


@dataclasses.dataclass(frozen=True)
class LaunchSpec:
    """What a backend-cost estimator needs to know about one launch.

    ``ring`` is the canonical semiring name (``"min-plus"``, ...).
    ``density_a``/``density_b`` are explicit-entry fractions of the two
    operands under that ring (see
    :func:`repro.sparse.density.estimate_density`); dense callers leave
    them at 1.0.  ``has_accumulator`` is carried for completeness — the
    ⊕-with-C pass is an output-sized term every backend already includes.
    """

    ring: str
    m: int
    n: int
    k: int
    density_a: float = 1.0
    density_b: float = 1.0
    has_accumulator: bool = False

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0 or self.k < 0:
            raise CostModelError(
                f"launch dimensions must be >= 0, got {(self.m, self.n, self.k)}"
            )
        for name, value in (("density_a", self.density_a),
                            ("density_b", self.density_b)):
            if not 0.0 <= value <= 1.0:
                raise CostModelError(
                    f"{name} must be within [0, 1], got {value}"
                )


def _padded_tiles(spec: LaunchSpec) -> tuple[int, int, int]:
    """The tile grid the dense backends run (``k == 0`` is one step)."""
    tiles_m, tiles_n, tiles_k = tile_counts(spec.m, spec.n, spec.k)
    return tiles_m, tiles_n, max(tiles_k, 1)


def _vectorized_terms(spec: LaunchSpec) -> tuple[float, ...]:
    tiles_m, tiles_n, tiles_k = _padded_tiles(spec)
    m, n, k = tiles_m * TILE, tiles_n * TILE, tiles_k * TILE
    loop = kernel_loop(get_semiring(spec.ring), m, n, k)
    pairs = float(m * n * k)
    # The packed pass gathers one table row of ceil(n / 64) words per key:
    # per set bit of A at width 1, where the table is B's packed rows, and
    # per nonzero byte at width 8, after building 256 rows per byte group.
    # Padding adds no set bits.
    keys = table_rows = 0.0
    if loop == "packed":
        bits = spec.m * spec.k * spec.density_a
        if _key_width(m, k, n, bits) == 1:
            keys = bits
        else:
            keys, table_rows = _nonzero_bytes(m, k, bits), 256.0 * -(-k // 8)
    words = -(-n // 64)
    return (
        1.0,
        float(m * k),
        float(k * n),
        float(m * n),
        pairs if loop == "reduce" else 0.0,
        pairs if loop == "stream" else 0.0,
        pairs if loop == "unbuffered" else 0.0,
        keys,
        keys * words,
        table_rows * words,
    )


def _sparse_terms(spec: LaunchSpec) -> tuple[float, ...]:
    m, n, k = spec.m, spec.n, spec.k
    nnz_a = m * k * spec.density_a
    products = nnz_a * n * spec.density_b
    return (
        1.0,
        float(m * k + k * n + m * n),
        m * (1.0 - (1.0 - spec.density_a) ** k),
        nnz_a,
        products,
        products * (1.0 - spec.density_b),
    )


def _emulate_terms(spec: LaunchSpec) -> tuple[float, ...]:
    tiles_m, tiles_n, tiles_k = _padded_tiles(spec)
    return (1.0, float(tiles_m * tiles_n), float(tiles_m * tiles_n * tiles_k))


_Counter = Callable[[LaunchSpec], tuple[float, ...]]

#: Per backend: the names of the counts its price is linear in, in the
#: order the fitted coefficients are stored, and the function counting them.
_TERMS: dict[str, tuple[tuple[str, ...], _Counter]] = {
    "vectorized": (
        ("launch", "a_entry", "b_entry", "output",
         "pair_reduce", "pair_stream", "pair_unbuffered",
         "gathered_row", "gathered_word", "table_word"),
        _vectorized_terms,
    ),
    "sparse": (
        ("launch", "entry", "row", "slice", "product", "scattered"),
        _sparse_terms,
    ),
    "emulate": (("launch", "tile", "tile_step"), _emulate_terms),
}

#: Term names per backend, in the order :func:`terms` returns them.
TERMS: dict[str, tuple[str, ...]] = {
    backend: names for backend, (names, _) in _TERMS.items()
}


def terms(backend: str, spec: LaunchSpec) -> tuple[float, ...]:
    """The counts ``backend``'s price of ``spec`` is linear in.

    One value per name in ``TERMS[backend]``; a price is their dot
    product with the fitted coefficients.
    """
    return _TERMS[backend][1](spec)


def estimate(backend: str, spec: LaunchSpec) -> float:
    """Seconds the named backend is expected to spend on ``spec``.

    Unfitted backends and rings price at :data:`UNKNOWN_COST_S` — they
    stay dispatchable but rank behind every calibrated backend until the
    autotune table observes them.
    """
    coefficients = COEFFICIENTS.get(backend, {}).get(spec.ring)
    if coefficients is None:
        return UNKNOWN_COST_S
    return float(sum(c * t for c, t in zip(coefficients, terms(backend, spec))))
