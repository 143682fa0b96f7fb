"""Compile-time verification: every artifact ships a passing report."""

from __future__ import annotations

import numpy as np
import pytest

import repro.compile.lower as lower_mod
from repro.compile import CompileError, compile_mmo, lower_mmo, verify_lowering
from repro.isa import (
    ElementType,
    FillMatrix,
    LoadMatrix,
    Mmo,
    MmoOpcode,
    Program,
    StoreMatrix,
)


def _ill_typed_program() -> Program:
    # f32 fills feeding the f16 a/b ports: rejected by the type checker.
    return Program(
        [
            FillMatrix(dst=0, value=1.0, etype=ElementType.F32),
            FillMatrix(dst=1, value=1.0, etype=ElementType.F32),
            FillMatrix(dst=2, value=0.0),
            Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
            StoreMatrix(src=3, addr=512, ld=16),
        ],
        auto_halt=True,
    )


class TestArtifactVerification:
    @pytest.mark.parametrize("opcode", list(MmoOpcode))
    def test_every_opcode_ships_a_passing_report(self, opcode):
        compiled = lower_mmo(opcode, 2, 3, 4, has_accumulator=True)
        report = compiled.verification
        assert report is not None
        assert report.ok
        assert not report.warnings
        assert report.effects is not None
        assert report.effects.opcodes == (opcode,)
        assert report.effects.deterministic
        # The report was produced against the artifact's own layout.
        assert report.shared_memory_bytes <= compiled.shared_bytes

    def test_report_footprint_matches_layout(self):
        compiled = lower_mmo(MmoOpcode.MMA, 1, 1, 2, has_accumulator=True)
        report = compiled.verification
        # Deepest access is the f32 D-tile store at d_addr.
        expected = (compiled.d_addr + 15 * 16 + 16) * compiled.out_etype.nbytes
        assert report.shared_memory_bytes == expected

    def test_lower_rejects_ill_typed_program(self, monkeypatch):
        def bad_builder(opcode, tiles_k, *, boolean):
            return _ill_typed_program(), 512, 768

        monkeypatch.setattr(lower_mod, "build_tile_mmo_program", bad_builder)
        with pytest.raises(CompileError) as excinfo:
            lower_mmo(MmoOpcode.MMA, 1, 1, 1, has_accumulator=True)
        message = str(excinfo.value)
        assert "lowering of mmo.mma" in message
        assert "instruction 3:" in message  # the offending mmo, by index

    @pytest.mark.parametrize("opcode", list(MmoOpcode))
    def test_verify_lowering_footprint_gate(self, opcode):
        program, _, _ = lower_mod.build_tile_mmo_program(
            opcode, 4, boolean=opcode.semiring.is_boolean()
        )
        with pytest.raises(CompileError, match="shared-memory layout"):
            verify_lowering(program, opcode, (1, 1, 4), shared_limit=64)

    def test_verify_lowering_returns_report_when_clean(self):
        program, _, _ = lower_mod.build_tile_mmo_program(
            MmoOpcode.MINPLUS, 2, boolean=False
        )
        report = verify_lowering(program, MmoOpcode.MINPLUS, (1, 1, 2))
        assert report.ok
        assert report.store_set

    def test_cached_plan_reuses_report(self):
        from repro.compile.cache import PlanCache

        cache = PlanCache()
        first, hit1 = compile_mmo(
            MmoOpcode.MAXPLUS, 32, 32, 48, has_accumulator=False, cache=cache,
        )
        second, hit2 = compile_mmo(
            MmoOpcode.MAXPLUS, 32, 32, 48, has_accumulator=False, cache=cache,
        )
        assert (hit1, hit2) == (False, True)
        assert second.verification is first.verification  # no re-verify


class TestTraceCompileRecords:
    def test_trace_hook_surfaces_verification_stats(self):
        from repro.compile.cache import PlanCache
        from repro.runtime import Trace, mmo_tiled, use_context

        trace = Trace()
        a = np.random.default_rng(0).random((32, 48)).astype(np.float32)
        b = np.random.default_rng(1).random((48, 32)).astype(np.float32)
        with use_context(trace=trace, plan_cache=PlanCache()):
            mmo_tiled("minplus", a, b)
            mmo_tiled("minplus", a, b)
        assert len(trace.compiles) == 2
        fresh, replay = trace.compiles
        assert (fresh.cache_hit, replay.cache_hit) == (False, True)
        for record in trace.compiles:
            assert record.verified is True
            assert record.verifier_warnings == 0
            assert record.deterministic is True
            assert record.registers_used == 3
            assert record.shared_memory_bytes > 0
        summary = trace.summary()
        assert summary.compile_requests == 2
        assert summary.programs_verified == 2
        assert summary.verifier_warnings == 0
        assert summary.as_row()["programs_verified"] == 2

    def test_unverified_artifact_records_none(self):
        from repro.hooks.builtin import TRACE_HOOK
        from repro.runtime import Trace
        from repro.runtime.context import ExecutionContext

        compiled = lower_mmo(MmoOpcode.MMA, 1, 1, 1, has_accumulator=True)
        stripped = type(compiled)(
            **{
                **{f.name: getattr(compiled, f.name)
                   for f in compiled.__dataclass_fields__.values()},
                "verification": None,
            }
        )
        trace = Trace()
        ctx = ExecutionContext(backend="vectorized", trace=trace)
        TRACE_HOOK.post_compile(ctx, "test", stripped, cache_hit=False)
        (record,) = trace.compiles
        assert record.verified is None
        assert record.deterministic is None
