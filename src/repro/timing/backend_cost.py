"""Substrate-calibrated wall-time estimators, one per execution backend.

The GPU-analytic model in :mod:`repro.timing.costmodel` prices the
*paper's* hardware; the planner (:mod:`repro.plan`) needs something
different — a price for this repository's own execution substrates, so a
cold autotune table can still rank ``vectorized`` against ``sparse``
against ``emulate`` for a concrete ``(m, n, k, density)`` launch.  This
module is that price list, behind one interface::

    estimate(backend_name, LaunchSpec(m, n, k, density_a=..., density_b=...))
        -> seconds

Model structure follows the actual kernels:

- **vectorized** — one fused ⊗/⊕ pass over the padded operand volume:
  an output-sized term plus a per-``(i, k, j)``-pair term, with a mild
  super-linear correction once the working set outgrows cache.
- **sparse** — Gustavson spGEMM (:mod:`repro.sparse.spgemm`): CSR
  compression/densification scans every dense entry, the row loop costs
  per output row, gathering B-row slices costs per *A-nonzero*, and the
  ⊗/merge work scales with the expected product count
  ``m·n·k·density_a·density_b``.
- **emulate** — the instruction-level device emulator: a large per-pair
  constant (it replays warp programs tile by tile in Python), so it
  never wins on time; it ranks last among the built-ins by design.

Coefficients were fitted on the development container with non-negative
least squares over interleaved min-of-repeats timings of square launches
(n ∈ 64…384, density 0.005…1.0), weighted toward the sparse/dense
crossover band.  They are *relative* prices: absolute wall times on
other hosts will differ, but the planner only consumes the ordering and
the crossover location, and the autotune table refines both online.

Unknown backends (a custom registered backend, say) estimate to
:data:`UNKNOWN_COST_S` (infinite) so they rank behind every calibrated
backend until the autotune table observes them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

__all__ = [
    "CostModelError",
    "LaunchSpec",
    "UNKNOWN_COST_S",
    "estimate",
]

#: Price of a backend nothing knows how to estimate: ranks last, always.
UNKNOWN_COST_S = float("inf")


class CostModelError(ValueError):
    """Invalid launch spec."""


@dataclasses.dataclass(frozen=True)
class LaunchSpec:
    """What a backend-cost estimator needs to know about one launch.

    ``density_a``/``density_b`` are explicit-entry fractions of the two
    operands under the launch's ring (see
    :func:`repro.sparse.density.estimate_density`); dense callers leave
    them at 1.0.  ``has_accumulator`` is carried for completeness — the
    ⊕-with-C pass is an output-sized term every backend already includes.
    """

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

    @property
    def pairs(self) -> int:
        """⊗/⊕ pair count of the dense computation."""
        return self.m * self.n * self.k

    @property
    def output(self) -> int:
        return self.m * self.n


# ----------------------------------------------------------------------
# Calibrated built-in estimators.  Coefficients: see module docstring.
# ----------------------------------------------------------------------

_VEC_OUTPUT_S = 3.804e-08      # per output element (pad, crop, ⊕ with C)
_VEC_PAIR_S = 1.467e-09        # per (i, k, j) pair, in-cache
_VEC_CACHE_PAIR_S = 8.832e-10  # extra per pair and per doubling past cache
_VEC_CACHE_EDGE = 192.0        # characteristic dim where the working set spills


def vectorized_cost(spec: LaunchSpec) -> float:
    """One fused vectorised pass over the padded dense volume."""
    pairs = float(spec.pairs)
    side = pairs ** (1.0 / 3.0) if pairs else 0.0
    spill = max(0.0, math.log2(side / _VEC_CACHE_EDGE)) if side else 0.0
    return (
        _VEC_OUTPUT_S * spec.output
        + _VEC_PAIR_S * pairs
        + _VEC_CACHE_PAIR_S * pairs * spill
    )


_SP_SCAN_S = 2.224e-08    # per dense entry scanned (compress + densify + ⊕)
_SP_ROW_S = 4.379e-06     # per output row of the Gustavson loop
_SP_SLICE_S = 5.340e-06   # per A-nonzero (one B-row slice gather each)
_SP_PRODUCT_S = 2.535e-08 # per explicit ⊗ product merged


def sparse_cost(spec: LaunchSpec) -> float:
    """Gustavson spGEMM: compress, row loop, slice gathers, merge."""
    scanned = spec.m * spec.k + spec.k * spec.n + spec.output
    nnz_a = spec.m * spec.k * spec.density_a
    products = spec.pairs * spec.density_a * spec.density_b
    return (
        _SP_SCAN_S * scanned
        + _SP_ROW_S * spec.m
        + _SP_SLICE_S * nnz_a
        + _SP_PRODUCT_S * products
    )


_EMU_SETUP_S = 5.0e-04  # device + panel staging
_EMU_PAIR_S = 3.0e-08   # per pair: tile-by-tile warp-program replay


def emulate_cost(spec: LaunchSpec) -> float:
    """Instruction-level emulation: an order of magnitude off the pace."""
    return _EMU_SETUP_S + _EMU_PAIR_S * spec.pairs


_ESTIMATORS: dict[str, Callable[[LaunchSpec], float]] = {
    "vectorized": vectorized_cost,
    "sparse": sparse_cost,
    "emulate": emulate_cost,
}


def estimate(backend: str, spec: LaunchSpec) -> float:
    """Seconds the named backend is expected to spend on ``spec``.

    Unknown backends price at :data:`UNKNOWN_COST_S` — they stay
    dispatchable but rank behind every calibrated backend until the
    autotune table observes them.
    """
    fn = _ESTIMATORS.get(backend)
    if fn is None:
        return UNKNOWN_COST_S
    return float(fn(spec))
