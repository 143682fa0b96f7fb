"""The autotune table: observed launch times, bucketed and persistable.

The cost model in :mod:`repro.timing.backend_cost` is calibrated once,
offline; real substrates drift (cache pressure, host load, operand
structure the density summary misses).  The :class:`AutotuneTable` closes
the loop: every launch under an adaptive context lands one observation —
``(backend, opcode, shape bucket, density bin) → wall seconds`` — via
:class:`AutotuneHook` at the pipeline's ``post_execute`` point, and the
planner prefers an observed time over the model estimate for the same
bucket.  Buckets are half-octave in each dimension and quarter-decade in
density, coarse enough that a closure loop's slightly-varying iterates
share entries, fine enough that the sparse/dense crossover stays
resolvable.

The table is thread-safe (one lock over the entry map, mirroring
:class:`~repro.compile.cache.PlanCache`) and JSON round-trippable
(:meth:`AutotuneTable.save` / :meth:`AutotuneTable.load`), so a warmed
table can ship next to the committed plan-cache artifacts.  A process-wide
default (:func:`default_autotune_table`) backs every context that does
not carry its own, exactly like :func:`~repro.compile.cache
.default_plan_cache`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from typing import TYPE_CHECKING, NamedTuple

from repro.hooks.pipeline import Hook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hooks.pipeline import Launch

__all__ = [
    "AutotuneEntry",
    "AutotuneHook",
    "AutotuneKey",
    "AutotuneTable",
    "REPROBE_OBSERVATIONS",
    "default_autotune_table",
]

#: Densities below this clamp share the sparsest bin.
_MIN_DENSITY = 1e-4

#: Observation count below which a bucket's best time is not yet trusted
#: against a strong model contradiction.  One scheduling burst can poison
#: a fresh bucket's ``best_s`` by an order of magnitude, and pure
#: best-observed exploitation would then starve the poisoned backend of
#: the re-measurement that clears it; the planner re-probes such buckets
#: (see ``Planner.plan``) until they hold this many samples.
REPROBE_OBSERVATIONS = 3


def _dim_bucket(dim: int) -> int:
    """Half-octave bucket of one launch dimension (0 gets its own)."""
    if dim <= 0:
        return -1
    return int(round(2.0 * math.log2(dim)))


def _density_bin(density: float) -> int:
    """Quarter-decade bucket of an explicit-entry fraction."""
    clamped = min(1.0, max(_MIN_DENSITY, density))
    return int(round(4.0 * math.log10(clamped)))


class AutotuneKey(NamedTuple):
    """What makes two launches share one observation bucket."""

    backend: str
    opcode: str
    m_bucket: int
    n_bucket: int
    k_bucket: int
    density_a_bin: int
    density_b_bin: int

    @classmethod
    def bucket(
        cls,
        backend: str,
        opcode: str,
        *,
        m: int,
        n: int,
        k: int,
        density_a: float = 1.0,
        density_b: float = 1.0,
    ) -> "AutotuneKey":
        return cls(
            backend=backend,
            opcode=opcode,
            m_bucket=_dim_bucket(m),
            n_bucket=_dim_bucket(n),
            k_bucket=_dim_bucket(k),
            density_a_bin=_density_bin(density_a),
            density_b_bin=_density_bin(density_b),
        )


@dataclasses.dataclass
class AutotuneEntry:
    """Accumulated observations of one bucket.

    ``best_s`` (the minimum observed wall time) is what the planner
    consumes: it is robust to one-off scheduling noise, matching the
    min-of-repeats discipline the bench harness times with.
    """

    count: int = 0
    total_s: float = 0.0
    best_s: float = math.inf

    def observe(self, wall_time_s: float) -> None:
        self.count += 1
        self.total_s += wall_time_s
        if wall_time_s < self.best_s:
            self.best_s = wall_time_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else math.inf


class AutotuneTable:
    """Thread-safe store of observed launch wall times, by bucket.

    ``record`` folds one observation in; ``observed`` returns the bucket's
    best time or ``None`` when the bucket is cold — the planner's signal
    to fall back to the model estimate.  ``save``/``load`` round-trip the
    table through JSON so a warmed table persists next to the plan cache
    artifacts.
    """

    #: Bound on the memoised-plan map (see :meth:`cached_plan`).
    _PLAN_CACHE_LIMIT = 256

    def __init__(self) -> None:
        self._entries: dict[AutotuneKey, AutotuneEntry] = {}
        self._lock = threading.Lock()
        # Plans memoised against _version: a recorded observation only
        # invalidates them when it could change a planner ranking (a new
        # bucket, or an improved best_s) — steady-state relaunches of one
        # shape replan from this map instead of repricing every backend.
        self._version = 0
        self._plans: dict[tuple, tuple[int, object]] = {}

    @property
    def version(self) -> int:
        """Bumped whenever an observation could change a plan ranking."""
        with self._lock:
            return self._version

    # ------------------------------------------------------------------
    def record(
        self,
        backend: str,
        opcode: str,
        *,
        m: int,
        n: int,
        k: int,
        density_a: float = 1.0,
        density_b: float = 1.0,
        wall_time_s: float,
    ) -> None:
        if wall_time_s < 0:
            return
        key = AutotuneKey.bucket(
            backend, opcode, m=m, n=n, k=k,
            density_a=density_a, density_b=density_b,
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = AutotuneEntry()
            # An observation invalidates memoised plans when it could
            # change a ranking: a new per-bucket best, or any sample
            # landing in a bucket still below the re-probe trust count
            # (the count itself feeds the planner's re-probe decision).
            if wall_time_s < entry.best_s or entry.count < REPROBE_OBSERVATIONS:
                self._version += 1
            entry.observe(wall_time_s)

    # ------------------------------------------------------------------
    def cached_plan(self, plan_key: tuple) -> object | None:
        """The plan memoised for ``plan_key``, unless observations moved on."""
        with self._lock:
            hit = self._plans.get(plan_key)
            if hit is None or hit[0] != self._version:
                return None
            return hit[1]

    def cache_plan(self, plan_key: tuple, plan: object) -> None:
        """Memoise ``plan`` against the table's current version."""
        with self._lock:
            if len(self._plans) >= self._PLAN_CACHE_LIMIT:
                self._plans.clear()
            self._plans[plan_key] = (self._version, plan)

    def observed(
        self,
        backend: str,
        opcode: str,
        *,
        m: int,
        n: int,
        k: int,
        density_a: float = 1.0,
        density_b: float = 1.0,
    ) -> float | None:
        """Best observed seconds for the bucket, or ``None`` when cold."""
        key = AutotuneKey.bucket(
            backend, opcode, m=m, n=n, k=k,
            density_a=density_a, density_b=density_b,
        )
        with self._lock:
            entry = self._entries.get(key)
            return entry.best_s if entry is not None and entry.count else None

    def observed_many(
        self,
        backends: "list[str] | tuple[str, ...]",
        opcode: str,
        *,
        m: int,
        n: int,
        k: int,
        density_a: float = 1.0,
        density_b: float = 1.0,
    ) -> dict[str, tuple[float, int] | None]:
        """``(best seconds, sample count)`` per backend, or ``None`` cold.

        One lock for the whole plan: the planner prices every capable
        backend for one launch bucket, and doing that through
        :meth:`observed` pays a lock round-trip per backend on the
        dispatch hot path.  The count funds the re-probe decision — a
        bucket below :data:`REPROBE_OBSERVATIONS` samples may still be
        noise-poisoned.
        """
        m_b, n_b, k_b = _dim_bucket(m), _dim_bucket(n), _dim_bucket(k)
        a_bin, b_bin = _density_bin(density_a), _density_bin(density_b)
        with self._lock:
            out: dict[str, tuple[float, int] | None] = {}
            for name in backends:
                entry = self._entries.get(
                    AutotuneKey(name, opcode, m_b, n_b, k_b, a_bin, b_bin)
                )
                out[name] = (
                    (entry.best_s, entry.count)
                    if entry is not None and entry.count
                    else None
                )
            return out

    def observation_count(
        self,
        backend: str,
        opcode: str,
        *,
        m: int,
        n: int,
        k: int,
        density_a: float = 1.0,
        density_b: float = 1.0,
    ) -> int:
        key = AutotuneKey.bucket(
            backend, opcode, m=m, n=n, k=k,
            density_a=density_a, density_b=density_b,
        )
        with self._lock:
            entry = self._entries.get(key)
            return entry.count if entry is not None else 0

    def snapshot(self) -> dict[AutotuneKey, AutotuneEntry]:
        """A consistent copy of every bucket (entries are copies too)."""
        with self._lock:
            return {
                key: dataclasses.replace(entry)
                for key, entry in self._entries.items()
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self._version += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AutotuneTable({len(self)} buckets)"

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        with self._lock:
            entries = [
                {
                    "backend": key.backend,
                    "opcode": key.opcode,
                    "m_bucket": key.m_bucket,
                    "n_bucket": key.n_bucket,
                    "k_bucket": key.k_bucket,
                    "density_a_bin": key.density_a_bin,
                    "density_b_bin": key.density_b_bin,
                    "count": entry.count,
                    "total_s": entry.total_s,
                    "best_s": entry.best_s,
                }
                for key, entry in sorted(self._entries.items())
            ]
        return {"version": 1, "entries": entries}

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "AutotuneTable":
        table = cls()
        entries = payload.get("entries", [])
        if not isinstance(entries, list):
            raise ValueError("autotune payload 'entries' must be a list")
        with table._lock:
            for raw in entries:
                key = AutotuneKey(
                    backend=str(raw["backend"]),
                    opcode=str(raw["opcode"]),
                    m_bucket=int(raw["m_bucket"]),
                    n_bucket=int(raw["n_bucket"]),
                    k_bucket=int(raw["k_bucket"]),
                    density_a_bin=int(raw["density_a_bin"]),
                    density_b_bin=int(raw["density_b_bin"]),
                )
                table._entries[key] = AutotuneEntry(
                    count=int(raw["count"]),
                    total_s=float(raw["total_s"]),
                    best_s=float(raw["best_s"]),
                )
        return table

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "AutotuneTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


#: The process-wide table used when an ExecutionContext carries none.
_DEFAULT_TABLE = AutotuneTable()


def default_autotune_table() -> AutotuneTable:
    """The shared table behind every context without an explicit one."""
    return _DEFAULT_TABLE


class AutotuneHook(Hook):
    """Feed observed launch wall times into the context's autotune table.

    Assembled automatically by :func:`~repro.hooks.pipeline
    .build_pipeline` whenever the context is adaptive (``backend="auto"``
    or an explicit ``autotune=`` table); stateless — the table comes from
    the launch's context (falling back to the process-wide default), and
    the recorded backend is the *concrete* backend the dispatch seam
    selected, never ``"auto"`` itself.  Degenerate launches (no kernel
    ran) record nothing.
    """

    def post_execute(self, launch: "Launch") -> None:
        if launch.degenerate or launch.stats is None:
            return
        context = launch.context
        # The dispatch seam leaves the plan's density estimates on the
        # carrier (see kernels._note_plan_densities); only launches that
        # reached here without a plan (explicit autotune= on a static
        # context) estimate afresh.
        densities = (launch.notes or {}).get("plan_densities")
        if densities is None:
            from repro.sparse.density import estimate_density

            semiring = launch.opcode.semiring
            densities = (
                estimate_density(launch.a, semiring),
                estimate_density(launch.b, semiring),
            )
        stats = launch.stats
        table = (
            context.autotune
            if context.autotune is not None
            else default_autotune_table()
        )
        table.record(
            context.backend,
            launch.opcode.name,
            m=stats.m,
            n=stats.n,
            k=stats.k,
            density_a=densities[0],
            density_b=densities[1],
            wall_time_s=launch.wall_time_s,
        )
