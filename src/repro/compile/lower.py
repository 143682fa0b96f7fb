"""Lowering: tile grid → optimised warp program + shared-memory layout.

This is the compile half of the compile/execute split.  It owns the
Figure-6 program generator (:func:`build_tile_mmo_program`), runs every
generated program through the peephole optimiser, and packages the result
as an immutable :class:`~repro.compile.artifact.CompiledMmo`.
:func:`compile_mmo` is the cached front door the dispatch layer uses; it
is the only lowering, since the artifact is the same for every backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.compile.artifact import CompileError, CompiledMmo, grid_for
from repro.compile.cache import PlanCache, PlanKey, default_plan_cache
from repro.core.registry import get_semiring
from repro.core.semiring import Semiring
from repro.core.tiles import TILE, ceil_div
from repro.isa.opcodes import ElementType, IsaError, MmoOpcode
from repro.isa.optimizer import optimize_program
from repro.isa.program import Program
from repro.isa.verifier import VerificationReport, verify_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionContext

# NOTE: nothing in repro.compile may import repro.runtime (or
# repro.backends) at module level — repro.runtime.kernels imports this
# module, so a module-level import upward would close an import cycle
# whichever package loads first.  The one genuine upward reference,
# TileProgramBuilder, is imported inside build_tile_mmo_program.

__all__ = [
    "build_tile_mmo_program",
    "compile_mmo",
    "lower_mmo",
    "plan_key_for",
    "resolve_opcode",
    "verify_lowering",
]

_TILE_ELEMS = TILE * TILE


def resolve_opcode(ring: Semiring | str | MmoOpcode) -> MmoOpcode:
    """Normalise any ring spelling (object, name, opcode) to an opcode."""
    if isinstance(ring, MmoOpcode):
        return ring
    return MmoOpcode.from_semiring(get_semiring(ring))


def build_tile_mmo_program(
    opcode: MmoOpcode, tiles_k: int, *, boolean: bool
) -> tuple[Program, int, int]:
    """Build the per-output-tile warp program of the Figure 6 kernel.

    Shared-memory layout (element addresses within each type's space):

    - A panel: ``tiles_k`` input tiles at ``kk * 256``,
    - B panel: ``tiles_k`` input tiles at ``(tiles_k + kk) * 256``,
    - C tile then D tile in the output element space, starting past the
      input panel bytes.

    Returns ``(program, c_addr, d_addr)`` with the output-space addresses.
    """
    from repro.runtime.api import RuntimeError_, TileProgramBuilder

    if tiles_k <= 0:
        raise RuntimeError_(f"tiles_k must be positive, got {tiles_k}")
    in_etype = ElementType.B8 if boolean else ElementType.F16
    out_etype = ElementType.B8 if boolean else ElementType.F32
    input_bytes = in_etype.nbytes * 2 * tiles_k * _TILE_ELEMS
    c_addr = ceil_div(input_bytes, out_etype.nbytes)
    d_addr = c_addr + _TILE_ELEMS

    builder = TileProgramBuilder(boolean=boolean)
    a_frag = builder.matrix("a")
    b_frag = builder.matrix("b")
    acc = builder.matrix("accumulator")
    builder.loadmatrix(acc, addr=c_addr, ld=TILE)
    for kk in range(tiles_k):
        builder.loadmatrix(a_frag, addr=kk * _TILE_ELEMS, ld=TILE)
        builder.loadmatrix(b_frag, addr=(tiles_k + kk) * _TILE_ELEMS, ld=TILE)
        builder.mmo(acc, a_frag, b_frag, acc, opcode)
    builder.storematrix(addr=d_addr, source=acc, ld=TILE)
    return builder.build(), c_addr, d_addr


def verify_lowering(
    program: Program,
    opcode: MmoOpcode,
    grid: tuple[int, int, int],
    *,
    shared_limit: int | None = None,
    stage: str = "lowering",
) -> VerificationReport:
    """Statically verify one lowered program, raising on any diagnostic.

    The compile layer's verification seam: runs
    :func:`~repro.isa.verifier.verify_program` with the ISA tile geometry
    and (for the optimised program) the artifact's shared-memory layout as
    the footprint limit, and turns a failing report into a
    :class:`~repro.compile.artifact.CompileError` carrying every
    instruction-indexed diagnostic.  Exposed separately from
    :func:`lower_mmo` so tests (and alternative backends with their own
    generators) can subject hand-built programs to exactly the gate every
    artifact passes through.
    """
    report = verify_program(program, tile=TILE, shared_limit=shared_limit)
    if not report.ok:
        diagnostics = "; ".join(report.errors)
        raise CompileError(
            f"{stage} of mmo.{opcode.mnemonic} for tile grid {grid} produced "
            f"an invalid program: {diagnostics}"
        )
    return report


def lower_mmo(
    opcode: MmoOpcode,
    tiles_m: int,
    tiles_n: int,
    tiles_k: int,
    *,
    has_accumulator: bool,
) -> "CompiledMmo":
    """Lower one tile grid to a verified, optimised, immutable artifact.

    Builds the naive Figure-6 program, statically verifies it
    (:func:`verify_lowering` — type, semiring-legality, liveness and
    register-budget checks), runs it through
    :func:`~repro.isa.optimizer.optimize_program` in validated mode (the
    optimised program must provably preserve the store set and per-store
    reaching dataflow), then verifies the optimised program against the
    computed shared-memory layout.  The final
    :class:`~repro.isa.verifier.VerificationReport` ships inside the
    artifact, so the :class:`~repro.compile.cache.PlanCache` amortises
    verification exactly like it amortises lowering.  Any diagnostic
    surfaces as a :class:`~repro.compile.artifact.CompileError` before an
    artifact exists.
    """
    boolean = opcode.semiring.is_boolean()
    grid = (tiles_m, tiles_n, tiles_k)
    program, c_addr, d_addr = build_tile_mmo_program(
        opcode, tiles_k, boolean=boolean
    )
    verify_lowering(program, opcode, grid)
    try:
        optimized = optimize_program(program, validate=True)
    except IsaError as exc:
        raise CompileError(
            f"optimisation of mmo.{opcode.mnemonic} for tile grid {grid} "
            f"changed observable behaviour: {exc}"
        ) from exc
    in_etype = ElementType.B8 if boolean else ElementType.F16
    out_etype = ElementType.B8 if boolean else ElementType.F32
    shared_bytes = (
        in_etype.nbytes * 2 * tiles_k * _TILE_ELEMS
        + out_etype.nbytes * 2 * _TILE_ELEMS
    ) + 64
    report = verify_lowering(
        optimized.program, opcode, grid,
        shared_limit=shared_bytes, stage="optimisation",
    )
    return CompiledMmo(
        opcode=opcode,
        boolean=boolean,
        tiles_m=tiles_m,
        tiles_n=tiles_n,
        tiles_k=tiles_k,
        has_accumulator=has_accumulator,
        program=optimized.program,
        removed_loads=optimized.removed_loads,
        removed_writes=optimized.removed_writes,
        c_addr=c_addr,
        d_addr=d_addr,
        shared_bytes=shared_bytes,
        in_etype=in_etype,
        out_etype=out_etype,
        verification=report,
    )


def plan_key_for(
    opcode: MmoOpcode, m: int, n: int, k: int, *, has_accumulator: bool
) -> PlanKey:
    """The cache key of a launch, from raw operand shapes."""
    tiles_m, tiles_n, tiles_k = grid_for(m, n, k)
    return PlanKey(
        opcode=opcode,
        tiles_m=tiles_m,
        tiles_n=tiles_n,
        tiles_k=tiles_k,
        has_accumulator=has_accumulator,
        boolean=opcode.semiring.is_boolean(),
    )


def compile_mmo(
    opcode: MmoOpcode,
    m: int,
    n: int,
    k: int,
    *,
    has_accumulator: bool,
    context: "ExecutionContext | None" = None,
    cache: PlanCache | None = None,
) -> "tuple[CompiledMmo, bool]":
    """Compile (or replay) the artifact for one launch shape.

    Resolves the cache — explicit ``cache`` argument, then the context's
    ``plan_cache``, then the process-wide default — and memoizes
    :func:`lower_mmo` of the launch's tile grid under its
    :class:`PlanKey`.  The key names no backend: one artifact serves
    every backend that executes the shape.  Returns ``(artifact,
    cache_hit)``; the dispatch layer records the hit flag on the
    launch's trace record.
    """
    if cache is None:
        ctx_cache = None if context is None else context.plan_cache
        cache = ctx_cache if ctx_cache is not None else default_plan_cache()
    key = plan_key_for(opcode, m, n, k, has_accumulator=has_accumulator)
    return cache.get_or_compile(
        key,
        lambda: lower_mmo(
            opcode, key.tiles_m, key.tiles_n, key.tiles_k,
            has_accumulator=has_accumulator,
        ),
    )
