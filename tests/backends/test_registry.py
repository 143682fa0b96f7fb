"""Backend registry semantics and the unified validation error path."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    BackendError,
    get_backend,
    list_backends,
    register_backend,
)
from repro.backends.base import _REGISTRY
from repro.backends.sparse import identity_absorbs
from repro.compile import compile_mmo, resolve_opcode
from repro.core import SEMIRINGS, mmo
from repro.hw.device import Simd2Device
from repro.resilience import Recovery, RetryPolicy
from repro.runtime import (
    ExecutionContext,
    HostRuntime,
    RuntimeError_,
    batched_mmo,
    closure,
    execute_compiled,
    mmo_tiled,
    mmo_tiled_multi_device,
    mmo_tiled_split_k,
    resolve_context,
    use_context,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"vectorized", "emulate", "sparse"} <= set(list_backends())

    def test_list_is_sorted(self):
        names = list_backends()
        assert list(names) == sorted(names)

    def test_get_backend_returns_named_impl(self):
        for name in list_backends():
            assert get_backend(name).name == name

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(BackendError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "unknown backend 'cuda'" in message
        for name in list_backends():
            assert name in message

    def test_backend_error_is_runtime_error(self):
        # Pre-existing callers catch RuntimeError_ with match="unknown backend".
        assert issubclass(BackendError, RuntimeError_)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend(get_backend("vectorized"))

    def test_register_and_dispatch_custom_backend(self):
        class DoublingBackend:
            name = "test-doubling"

            def execute(self, compiled, a, b, c, *, context):
                d, stats = get_backend("vectorized").execute(
                    compiled, a, b, c, context=context
                )
                return d * 2, stats

        register_backend(DoublingBackend())
        try:
            assert "test-doubling" in list_backends()
            a = np.ones((3, 4))
            b = np.ones((4, 2))
            expected, _ = mmo_tiled("plus-mul", a, b)
            doubled, _ = mmo_tiled("plus-mul", a, b, backend="test-doubling")
            np.testing.assert_array_equal(doubled, expected * 2)
        finally:
            _REGISTRY.pop("test-doubling", None)

    def test_replace_requires_flag(self):
        class Dummy:
            name = "test-dummy"

            def execute(self, compiled, a, b, c, *, context):  # pragma: no cover
                raise NotImplementedError

        register_backend(Dummy())
        try:
            with pytest.raises(BackendError, match="already registered"):
                register_backend(Dummy())
            register_backend(Dummy(), replace=True)
        finally:
            _REGISTRY.pop("test-dummy", None)

    def test_nameless_backend_rejected(self):
        class Nameless:
            def execute(self, compiled, a, b, c, *, context):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(BackendError, match="name"):
            register_backend(Nameless())

    def test_backend_without_execute_rejected(self):
        # The removed run_mmo protocol fails at registration, not mid-launch.
        class RunMmoOnly:
            name = "test-run-mmo-only"

            def run_mmo(self, opcode, a, b, c, *, context):  # pragma: no cover
                raise NotImplementedError

        try:
            with pytest.raises(BackendError, match="execute"):
                register_backend(RunMmoOnly())
            assert "test-run-mmo-only" not in list_backends()
        finally:
            _REGISTRY.pop("test-run-mmo-only", None)


class TestEntryPointValidation:
    """Every runtime entry point rejects unknown backends up front.

    Before the registry, only ``mmo_tiled`` validated; ``closure``,
    ``batched_mmo`` and ``mmo_tiled_multi_device`` passed bad names down
    to fail deep in the stack (or iterate first).
    """

    def _operands(self):
        a = np.ones((4, 4))
        return a, a.copy()

    def test_mmo_tiled(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled("plus-mul", a, b, backend="cuda")

    def test_mmo_tiled_empty_output_still_validates(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled("plus-mul", np.ones((0, 3)), np.ones((3, 2)), backend="cuda")

    def test_mmo_tiled_split_k(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled_split_k("plus-mul", a, b, backend="cuda")

    def test_closure(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            closure("min-plus", np.zeros((4, 4)), backend="cuda")

    def test_batched_mmo(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            batched_mmo("plus-mul", a[None], b[None], backend="cuda")

    def test_multi_device(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled_multi_device(
                "plus-mul", a, b, devices=[Simd2Device()], backend="cuda"
            )

    def test_host_runtime_constructor(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            HostRuntime(backend="cuda")

    def test_use_context_validates_eagerly(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            with use_context(backend="cuda"):
                pass  # pragma: no cover - must raise at the with statement

    def test_resolve_context(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            resolve_context(backend="cuda")


class TestCapabilityCheck:
    """Both launch entry points check the backend's declared rings first."""

    @pytest.mark.parametrize("entry", ["mmo_tiled", "execute_compiled"])
    def test_empty_output_still_checks_capability(self, entry):
        a, b = np.zeros((0, 16)), np.zeros((16, 16))
        ctx = ExecutionContext(backend="sparse")
        with pytest.raises(
            BackendError, match="does not support the plus-norm ring"
        ):
            if entry == "mmo_tiled":
                mmo_tiled("plus-norm", a, b, context=ctx)
            else:
                compiled, _ = compile_mmo(
                    resolve_opcode("plus-norm"), 16, 16, 16,
                    has_accumulator=False, context=ctx,
                )
                execute_compiled(compiled, a, b, context=ctx)


class TestDeviceIdiomDeduplicated:
    def test_no_call_site_constructs_the_emulate_device_branch(self):
        """The ``device=device if backend == "emulate" else None`` idiom was
        copied across host.py and multidevice.py; the context carries the
        device unconditionally now, so the branch must not reappear.
        """
        src_root = Path(__file__).resolve().parents[2] / "src"
        pattern = re.compile(
            r"if\s+[\w.]*backend\s*==\s*[\"']emulate[\"']\s+else\s+None"
        )
        offenders = [
            str(path.relative_to(src_root))
            for path in sorted(src_root.rglob("*.py"))
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []


class TestSparseBackendClassification:
    def test_absorbing_rings(self):
        expected_non_absorbing = {"plus-norm", "min-mul", "max-mul"}
        non_absorbing = {
            name for name, ring in SEMIRINGS.items() if not identity_absorbs(ring)
        }
        assert non_absorbing == expected_non_absorbing

    def test_sparse_backend_reports_spgemm_stats(self):
        a = np.ones((5, 6))
        b = np.ones((6, 7))
        _, stats = mmo_tiled("plus-mul", a, b, backend="sparse")
        assert stats.spgemm is not None
        assert stats.spgemm.products == 5 * 6 * 7

    def test_dense_backends_report_no_spgemm_stats(self):
        a = np.ones((5, 6))
        b = np.ones((6, 7))
        for backend in ("vectorized", "emulate"):
            _, stats = mmo_tiled("plus-mul", a, b, backend=backend)
            assert stats.spgemm is None


class TestQuantiseOnce:
    """Every backend rounds float64 operands to fp16 once, like core mmo.

    ``1 + 2**-11`` is the midpoint between two fp16 values, so an fp32
    cast first (which drops the ``2**-40``) makes the fp16 cast round down
    to 1.0, while a direct fp16 cast rounds up to ``1 + 2**-10``.
    """

    X = 1 + 2**-11 + 2**-40

    @pytest.mark.parametrize("backend", list_backends())
    def test_backend_matches_core_mmo(self, backend):
        a = np.full((3, 4), self.X)
        b = np.full((4, 5), self.X)
        c = np.full((3, 5), 3.0)
        d, _ = mmo_tiled("min-plus", a, b, c, backend=backend)
        np.testing.assert_array_equal(d, mmo("min-plus", a, b, c))
        assert d[0, 0] == np.float32(2 * (1 + 2**-10))

    @pytest.mark.parametrize("backend", list_backends())
    def test_checked_mmo_verifies(self, backend):
        a = np.full((3, 4), self.X)
        b = np.full((4, 5), self.X)
        once = Recovery(retry=RetryPolicy(max_retries=0))
        with use_context(backend=backend, recovery=once) as ctx:
            d, _ = mmo_tiled("min-plus", a, b, context=ctx)
        np.testing.assert_array_equal(d, mmo("min-plus", a, b))
