"""Semiring-generalised ABFT: ⊕-fold checksums for ``D = C ⊕ (A ⊗ B)``.

Huang–Abraham checksums are usually stated for plus-mul GEMM: append a
column-sum row to A, a row-sum column to B, and the product's checksums
must match.  The property they rely on is *distributivity of ⊗ over ⊕*::

    ⊕_i ⊕_k (a_ik ⊗ b_kj)  =  ⊕_k ((⊕_i a_ik) ⊗ b_kj)

which holds for any semiring — exactly the generality argument of the
SIMD² ISA, extended to fault tolerance.  So the same check covers
min-plus (shortest paths), or-and (reachability), max-min (capacities):

- **row checksum**: ``⊕-fold_rows(D) = (⊕-fold_rows C) ⊕ ((⊕-fold_rows A) ⊗ B)``
- **col checksum**: ``⊕-fold_cols(D) = (⊕-fold_cols C) ⊕ (A ⊗ (⊕-fold_cols B))``

The expected folds are O(mk + kn + mn) — negligible next to the O(mkn)
launch — and are computed on the host from the *quantised* operands (the
same fp16→fp32 cast the backends apply), so for idempotent ⊕ (min/max/or)
the comparison is **exact**: the fold of the true result selects the same
fp32 values the checksum computed.  For ``⊕ = np.add`` reassociation makes
the folds differ by rounding, so the comparison is tolerance-based.

Two rings need care:

- ``plus-norm``: ``⊗ = (a-b)²`` does not distribute over ``+``
  (``Σᵢ(aᵢ-b)² ≠ (Σᵢaᵢ-b)²``) — checksums are unsupported and
  :func:`mmo_checksums` raises :class:`ChecksumUnsupported`.
- ``min-mul``/``max-mul``: ``·`` distributes over min/max only on
  sign-consistent operands (a negative multiplier flips the order), so
  checksums require non-negative inputs and raise otherwise.

Detection semantics: a corruption is observable iff it changes a ⊕-fold.
Additive folds see every element change; idempotent folds are lossy —
raising a non-minimal element under min leaves both folds unchanged.  NaN
poison is always caught (NaN propagates through min/max/add folds).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.core.tiles import TILE
from repro.resilience.faults import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext
    from repro.runtime.kernels import KernelStats

__all__ = [
    "CheckedLaunch",
    "ChecksumReport",
    "ChecksumUnsupported",
    "CorruptionDetected",
    "MmoChecksums",
    "checked_mmo",
    "mmo_checksums",
]


class ChecksumUnsupported(ResilienceError):
    """The ring's ⊗ does not distribute over ⊕ for these operands."""


class CorruptionDetected(ResilienceError):
    """A launch's result violated its ABFT checksum invariant."""

    def __init__(self, report: "ChecksumReport"):
        super().__init__(f"ABFT checksum mismatch: {report.describe()}")
        self.report = report


@dataclasses.dataclass(frozen=True)
class ChecksumReport:
    """Outcome of verifying one launch against its checksums."""

    ok: bool
    ring: str
    exact: bool  # exact (idempotent ⊕) vs tolerance-based comparison
    bad_columns: tuple[int, ...] = ()
    bad_rows: tuple[int, ...] = ()
    max_row_deviation: float = 0.0
    max_col_deviation: float = 0.0

    @property
    def suspect_tiles(self) -> tuple[tuple[int, int], ...]:
        """Output tiles implicated by the mismatching fold lanes.

        The row checksum localises corrupt *columns*, the column checksum
        corrupt *rows*; their tile-granular intersection is the suspect
        set (all bad row tiles when only columns fired, and vice versa).
        """
        col_tiles = sorted({j // TILE for j in self.bad_columns})
        row_tiles = sorted({i // TILE for i in self.bad_rows})
        if row_tiles and col_tiles:
            return tuple((ti, tj) for ti in row_tiles for tj in col_tiles)
        if row_tiles:
            return tuple((ti, -1) for ti in row_tiles)
        return tuple((-1, tj) for tj in col_tiles)

    def describe(self) -> str:
        if self.ok:
            return f"{self.ring}: checksums ok"
        return (
            f"{self.ring}: {len(self.bad_columns)} bad fold column(s), "
            f"{len(self.bad_rows)} bad fold row(s), suspect tiles "
            f"{list(self.suspect_tiles)}"
        )


def _quantised(semiring: Semiring, x: np.ndarray) -> np.ndarray:
    """The fp16→fp32 (or bool) cast every backend applies to inputs."""
    from repro.core.precision import quantize_input

    return quantize_input(np.asarray(x), semiring).astype(semiring.output_dtype)


def _check_support(semiring: Semiring, a: np.ndarray, b: np.ndarray) -> None:
    if not getattr(semiring, "distributive_otimes", True):
        raise ChecksumUnsupported(
            f"ring {semiring.name!r}: ⊗ does not distribute over ⊕, "
            f"ABFT checksums do not apply"
        )
    if semiring.otimes is np.multiply and semiring.oplus in (np.minimum, np.maximum):
        # min/max only commute with · on sign-consistent data.
        with np.errstate(invalid="ignore"):
            if np.any(np.asarray(a) < 0) or np.any(np.asarray(b) < 0):
                raise ChecksumUnsupported(
                    f"ring {semiring.name!r}: · distributes over "
                    f"{semiring.oplus.__name__} only for non-negative "
                    f"operands"
                )


@dataclasses.dataclass(frozen=True)
class MmoChecksums:
    """Pre-launch expected ⊕-folds of one ``D = C ⊕ (A ⊗ B)`` launch."""

    semiring: Semiring
    expected_row_fold: np.ndarray  # (n,) — ⊕ over D's rows (axis 0)
    expected_col_fold: np.ndarray  # (m,) — ⊕ over D's columns (axis 1)
    rtol: float
    atol: float

    @property
    def exact(self) -> bool:
        return self.semiring.is_idempotent()

    def verify(self, d: np.ndarray) -> ChecksumReport:
        """Compare the launch result's folds against the expectations."""
        ring = self.semiring
        d = np.asarray(d, dtype=ring.output_dtype)
        got_row = ring.reduce(d, axis=0)
        got_col = ring.reduce(d, axis=1)
        if self.exact:
            bad_cols = ~_eq_with_nan(got_row, self.expected_row_fold)
            bad_rows = ~_eq_with_nan(got_col, self.expected_col_fold)
            row_dev = col_dev = 0.0
        else:
            bad_cols, row_dev = _tolerance_mismatch(
                got_row, self.expected_row_fold, self.rtol, self.atol
            )
            bad_rows, col_dev = _tolerance_mismatch(
                got_col, self.expected_col_fold, self.rtol, self.atol
            )
        ok = not (bad_cols.any() or bad_rows.any())
        return ChecksumReport(
            ok=bool(ok),
            ring=ring.name,
            exact=self.exact,
            bad_columns=tuple(int(j) for j in np.flatnonzero(bad_cols)),
            bad_rows=tuple(int(i) for i in np.flatnonzero(bad_rows)),
            max_row_deviation=row_dev,
            max_col_deviation=col_dev,
        )


def _eq_with_nan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise equality treating NaN == NaN (bool-dtype safe)."""
    if x.dtype == np.dtype(bool):
        return x == y
    return (x == y) | (np.isnan(x) & np.isnan(y))


def _tolerance_mismatch(
    got: np.ndarray, expected: np.ndarray, rtol: float, atol: float
) -> tuple[np.ndarray, float]:
    """Per-lane tolerance comparison; NaN on one side only is a mismatch."""
    got64 = got.astype(np.float64)
    exp64 = expected.astype(np.float64)
    both_nan = np.isnan(got64) & np.isnan(exp64)
    with np.errstate(invalid="ignore"):
        close = np.isclose(got64, exp64, rtol=rtol, atol=atol) | both_nan
    deviation = np.abs(got64 - exp64)
    deviation = float(np.nanmax(deviation)) if deviation.size else 0.0
    return ~close, deviation


def mmo_checksums(
    ring: Semiring | str,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> MmoChecksums:
    """Compute the expected row/column ⊕-folds before launching.

    Raises :class:`ChecksumUnsupported` for rings/operands where the
    distributive invariant does not hold (see module docstring).
    """
    semiring = get_semiring(ring)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        # Same family and message as the kernels' own shape validation, so
        # checked and unchecked launches reject malformed operands alike.
        raise ResilienceError(f"bad mmo operand shapes A{a.shape} x B{b.shape}")
    if c is not None and np.asarray(c).shape != (a.shape[0], b.shape[1]):
        raise ResilienceError(
            f"accumulator shape {np.asarray(c).shape} != "
            f"{(a.shape[0], b.shape[1])}"
        )
    _check_support(semiring, a, b)
    aq = _quantised(semiring, a)
    bq = _quantised(semiring, b)

    # row checksum: (⊕-fold_rows A) ⊗ B, folded along k
    ra = semiring.reduce(aq, axis=0)  # (k,)
    with np.errstate(invalid="ignore"):
        row_products = semiring.otimes(ra[:, None], bq)  # (k, n)
    expected_row = semiring.reduce(
        np.asarray(row_products, dtype=semiring.output_dtype), axis=0
    )
    # col checksum: A ⊗ (⊕-fold_cols B), folded along k
    cb = semiring.reduce(bq, axis=1)  # (k,)
    with np.errstate(invalid="ignore"):
        col_products = semiring.otimes(aq, cb[None, :])  # (m, k)
    expected_col = semiring.reduce(
        np.asarray(col_products, dtype=semiring.output_dtype), axis=1
    )
    if c is not None:
        cq = np.asarray(c, dtype=semiring.output_dtype)
        expected_row = np.asarray(
            semiring.oplus(expected_row, semiring.reduce(cq, axis=0)),
            dtype=semiring.output_dtype,
        )
        expected_col = np.asarray(
            semiring.oplus(expected_col, semiring.reduce(cq, axis=1)),
            dtype=semiring.output_dtype,
        )
    return MmoChecksums(
        semiring=semiring,
        expected_row_fold=expected_row,
        expected_col_fold=expected_col,
        rtol=rtol,
        atol=atol,
    )


@dataclasses.dataclass(frozen=True)
class CheckedLaunch:
    """Opt-in ABFT wrapper: checksum before, launch, verify after.

    >>> checked = CheckedLaunch()
    >>> d, stats = checked.run("min-plus", a, b, c, context=ctx)

    Raises :class:`CorruptionDetected` (report attached) when the result
    violates the folded invariant, and records a ``corruption_detected``
    event on the context's trace.  ``rtol``/``atol`` apply to the
    tolerance path (``⊕ = np.add``); idempotent rings compare exactly.
    """

    rtol: float = 1e-4
    atol: float = 1e-6

    def run(
        self,
        ring: Semiring | str,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        context: "ExecutionContext | None" = None,
        api: str = "checked_mmo",
    ) -> "tuple[np.ndarray, KernelStats]":
        # A checked, never-retried launch node.  Lazy: policy imports us.
        from repro.resilience.policy import RetryPolicy, _launch_node

        return _launch_node(
            ring, a, b, c,
            context=context, api=api, validate_inputs=True,
            checked=True, retry=RetryPolicy(max_retries=0), fallback=None,
            rtol=self.rtol, atol=self.atol,
        )

    def verify(
        self,
        sums: MmoChecksums,
        result: np.ndarray,
        *,
        context: "ExecutionContext | None" = None,
        api: str = "checked_mmo",
    ) -> ChecksumReport:
        """Verify a result against precomputed checksums; raise on mismatch."""
        report = sums.verify(result)
        if not report.ok:
            if context is not None:
                from repro.hooks.pipeline import emit_event

                emit_event(
                    context,
                    kind="corruption_detected",
                    api=api,
                    detail=report.describe(),
                )
            raise CorruptionDetected(report)
        return report


def checked_mmo(
    ring: Semiring | str,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    context: "ExecutionContext | None" = None,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    api: str = "checked_mmo",
) -> "tuple[np.ndarray, KernelStats]":
    """Functional shorthand for :meth:`CheckedLaunch.run`."""
    return CheckedLaunch(rtol=rtol, atol=atol).run(
        ring, a, b, c, context=context, api=api
    )
