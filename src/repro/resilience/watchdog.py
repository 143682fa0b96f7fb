"""Closure watchdog: structured detection of poisoned or stuck iterations.

A semiring closure (``D ← D ⊕ (D ⊗ X)`` until fixpoint) fails in
characteristic ways when its launches are corrupted:

- **NaN poisoning** — one NaN propagates through every subsequent mmo
  and, because ``NaN != NaN``, the convergence check can never fire: the
  loop silently burns its iteration cap.
- **Non-monotone progress** — on idempotent rings the update is a
  ⊕-selection, so the matrix must move monotonically toward the fixpoint
  (min-plus distances never increase, or-and reachability never loses an
  edge).  Any element moving the wrong way is corruption, not progress.
- **Oscillation** — the matrix revisits a previous state without being a
  fixpoint (period-2 flapping between corrupted states).

:class:`ClosureWatchdog` observes each iterate and returns a structured
:class:`ClosureDiagnostics` the moment one of these fires, letting
:func:`~repro.runtime.closure.closure` terminate early with a diagnosis
attached to its result instead of spinning to the cap.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.runtime.closure import matrices_equal

__all__ = ["ClosureDiagnostics", "ClosureWatchdog"]


@dataclasses.dataclass(frozen=True)
class ClosureDiagnostics:
    """What the watchdog saw when it tripped (or a healthy summary).

    ``reason`` is ``None`` for a healthy run, else one of
    ``"nan_poisoning"``, ``"non_monotone"``, ``"oscillation"`` — or
    ``"budget_exhausted"`` when a closure brownout
    (``on_budget="brownout"``) stopped the loop at a partial fixpoint.
    """

    healthy: bool
    reason: str | None
    iteration: int
    detail: str

    def describe(self) -> str:
        if self.healthy:
            return "closure healthy"
        return f"{self.reason} at iteration {self.iteration}: {self.detail}"


def _monotone_direction(ring: Semiring) -> str | None:
    """Which way an idempotent closure may move: "down", "up", or None."""
    if ring.oplus is np.minimum:
        return "down"
    if ring.oplus in (np.maximum, np.logical_or):
        return "up"
    return None  # plus-based rings accumulate; no order to police


class ClosureWatchdog:
    """Observes closure iterates; trips on poison, regression, or flapping.

    Parameters
    ----------
    ring:
        The closure's semiring (controls which checks apply: monotonicity
        is only meaningful for idempotent ⊕).
    check_nan / check_monotone / check_oscillation:
        Individually toggleable detectors.  ``check_monotone`` is ignored
        on rings without a ⊕-order; NaN entries present in the *initial*
        matrix are tolerated (a NaN fixpoint is the caller's business —
        only *newly appearing* NaNs trip the watchdog).
    """

    def __init__(
        self,
        ring: Semiring | str,
        *,
        check_nan: bool = True,
        check_monotone: bool = True,
        check_oscillation: bool = True,
    ):
        self.ring = get_semiring(ring)
        self.check_nan = check_nan
        self.check_monotone = (
            check_monotone and _monotone_direction(self.ring) is not None
        )
        self.check_oscillation = check_oscillation
        self._direction = _monotone_direction(self.ring)
        self._initial_nan: np.ndarray | None = None
        self._previous: np.ndarray | None = None  # D_{t-1}
        self._previous2: np.ndarray | None = None  # D_{t-2}

    def observe(
        self, updated: np.ndarray, previous: np.ndarray, iteration: int
    ) -> ClosureDiagnostics | None:
        """Inspect one iteration's ``previous → updated`` step.

        Returns a tripped :class:`ClosureDiagnostics` or ``None`` when the
        step looks healthy.  ``iteration`` is 1-based (the iteration that
        produced ``updated``).
        """
        updated = np.asarray(updated)
        previous = np.asarray(previous)
        is_float = np.issubdtype(updated.dtype, np.floating)

        if self.check_nan and is_float:
            if self._initial_nan is None:
                self._initial_nan = np.isnan(previous)
            new_nan = np.isnan(updated) & ~self._initial_nan
            if new_nan.any():
                i, j = np.argwhere(new_nan)[0]
                count = int(new_nan.sum())
                return ClosureDiagnostics(
                    healthy=False,
                    reason="nan_poisoning",
                    iteration=iteration,
                    detail=(
                        f"{count} new NaN entr{'y' if count == 1 else 'ies'}, "
                        f"first at ({i}, {j})"
                    ),
                )

        if self.check_monotone:
            if self._direction == "down":
                with np.errstate(invalid="ignore"):
                    regressed = updated > previous
            else:
                with np.errstate(invalid="ignore"):
                    regressed = updated < previous
            if regressed.any():
                i, j = np.argwhere(regressed)[0]
                arrow = "increased" if self._direction == "down" else "decreased"
                return ClosureDiagnostics(
                    healthy=False,
                    reason="non_monotone",
                    iteration=iteration,
                    detail=(
                        f"{int(regressed.sum())} entr"
                        f"{'y' if int(regressed.sum()) == 1 else 'ies'} "
                        f"{arrow} under an idempotent ⊕ "
                        f"(first at ({i}, {j}): "
                        f"{previous[i, j]} -> {updated[i, j]})"
                    ),
                )

        if self.check_oscillation and self._previous2 is not None:
            same_as_t2 = matrices_equal(updated, self._previous2)
            changed_from_t1 = not matrices_equal(updated, previous)
            if same_as_t2 and changed_from_t1:
                return ClosureDiagnostics(
                    healthy=False,
                    reason="oscillation",
                    iteration=iteration,
                    detail="matrix returned to its state two iterations ago "
                           "without reaching a fixpoint (period-2 flapping)",
                )

        self._previous2 = self._previous
        self._previous = np.array(updated, copy=True)
        return None

