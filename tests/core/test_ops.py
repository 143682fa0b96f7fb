"""Tests for the whole-matrix mmo oracle and its fast paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SEMIRINGS, SemiringError, get_semiring, mmo, ops
from repro.core.ops import gemm, mmo_reference, squared_l2_distance
from repro.core.quantized import int8_variant
from tests.conftest import make_ring_inputs


class TestMmoAgainstScalarReference:
    @pytest.mark.parametrize("shape", [(3, 4, 5), (1, 1, 1), (7, 2, 6)])
    def test_matches_triple_loop(self, ring, shape, rng):
        m, k, n = shape
        a, b, c = make_ring_inputs(ring, m, k, n, rng)
        np.testing.assert_array_equal(mmo(ring, a, b, c), mmo_reference(ring, a, b, c))

    def test_matches_triple_loop_without_c(self, ring, rng):
        a, b, _ = make_ring_inputs(ring, 4, 3, 5, rng, with_c=False)
        np.testing.assert_array_equal(mmo(ring, a, b), mmo_reference(ring, a, b))


class TestMmoSemantics:
    def test_plus_mul_is_gemm(self, rng):
        a = rng.integers(-5, 6, (6, 4)).astype(np.float64)
        b = rng.integers(-5, 6, (4, 7)).astype(np.float64)
        c = rng.integers(-5, 6, (6, 7)).astype(np.float64)
        np.testing.assert_allclose(
            mmo("plus-mul", a, b, c), (a @ b + c).astype(np.float32)
        )

    def test_min_plus_is_shortest_path_relaxation(self):
        # Two-node graph: going through the intermediate beats the direct edge.
        direct = np.array([[10.0]])
        a = np.array([[3.0, np.inf]])
        b = np.array([[4.0], [np.inf]])
        result = mmo("min-plus", a, b, direct)
        np.testing.assert_array_equal(result, np.array([[7.0]], dtype=np.float32))

    def test_min_plus_keeps_c_when_products_worse(self):
        direct = np.array([[2.0]])
        a = np.array([[3.0]])
        b = np.array([[4.0]])
        np.testing.assert_array_equal(
            mmo("min-plus", a, b, direct), np.array([[2.0]], dtype=np.float32)
        )

    def test_or_and_is_boolean_matmul(self, rng):
        a = rng.random((5, 6)) < 0.3
        b = rng.random((6, 4)) < 0.3
        expected = (a.astype(int) @ b.astype(int)) > 0
        np.testing.assert_array_equal(mmo("or-and", a, b), expected)

    def test_plus_norm_diagonal_is_zero(self, rng):
        points = rng.integers(-4, 5, (5, 3)).astype(np.float64)
        dist = mmo("plus-norm", points, points.T)
        np.testing.assert_array_equal(np.diag(dist), np.zeros(5, dtype=np.float32))

    def test_max_min_capacity(self):
        # Capacity of a two-hop path is the min of its edges; best path wins.
        a = np.array([[5.0, 2.0]])
        b = np.array([[3.0], [9.0]])
        result = mmo("max-min", a, b)
        np.testing.assert_array_equal(result, np.array([[3.0]], dtype=np.float32))

    def test_infinity_padding_is_absorbed(self):
        # Padding A/B with the ⊕ identity of min-plus (inf) adds no new paths.
        a = np.array([[1.0, np.inf], [np.inf, np.inf]])
        b = np.array([[2.0, np.inf], [np.inf, np.inf]])
        result = mmo("min-plus", a, b)
        assert result[0, 0] == 3.0
        assert np.all(np.isinf(result[0, 1:]))
        assert np.all(np.isinf(result[1, :]))


class TestValidation:
    def test_inner_dim_mismatch(self):
        with pytest.raises(SemiringError, match="inner dimensions differ"):
            mmo("plus-mul", np.zeros((2, 3)), np.zeros((4, 5)))

    def test_bad_c_shape(self):
        with pytest.raises(SemiringError, match="accumulator C"):
            mmo("plus-mul", np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((2, 5)))

    def test_non_2d_rejected(self):
        with pytest.raises(SemiringError, match="must be 2-D"):
            mmo("plus-mul", np.zeros(3), np.zeros((3, 4)))

    def test_empty_k_yields_identity_combined_with_c(self):
        a = np.zeros((2, 0))
        b = np.zeros((0, 3))
        c = np.ones((2, 3))
        np.testing.assert_array_equal(
            mmo("min-plus", a, b, c), np.ones((2, 3), dtype=np.float32)
        )


class TestFastPaths:
    def test_gemm_matches_mmo(self, rng):
        a = rng.integers(-5, 6, (8, 9)).astype(np.float64)
        b = rng.integers(-5, 6, (9, 7)).astype(np.float64)
        c = rng.integers(-5, 6, (8, 7)).astype(np.float64)
        np.testing.assert_allclose(gemm(a, b, c), mmo("plus-mul", a, b, c), rtol=1e-6)

    def test_squared_l2_matches_mmo(self, rng):
        a = rng.integers(-4, 5, (6, 5)).astype(np.float64)
        b = rng.integers(-4, 5, (5, 6)).astype(np.float64)
        np.testing.assert_allclose(
            squared_l2_distance(a, b), mmo("plus-norm", a, b), rtol=1e-5, atol=1e-4
        )

    def test_squared_l2_never_negative(self, rng):
        a = rng.normal(size=(10, 8))
        np.testing.assert_array_less(-1e-9, squared_l2_distance(a, a.T) + 1e-12)


class TestBlockedPathConsistency:
    def test_row_blocking_has_no_seams(self, rng, monkeypatch):
        # A budget of 64 elements gives 16-row blocks: results must be
        # identical to the scalar reference at every row, including the
        # block boundary at row 64.
        monkeypatch.setattr(ops, "_BUDGET", 64)
        a = rng.integers(-3, 4, (130, 5)).astype(np.float64)
        b = rng.integers(-3, 4, (5, 4)).astype(np.float64)
        got = mmo("min-plus", a, b)
        ref = mmo_reference("min-plus", a[60:70], b)
        np.testing.assert_array_equal(got[60:70], ref)


#: The nine rings plus the int8 variants, whose ⊕/⊗ are not ufuncs.
FOLD_RINGS = [*sorted(SEMIRINGS), "plus-mul-int8", "min-plus-int8"]

#: With a 32-element budget: (13, 17, 5) runs row blocks of 6, 6 and 1
#: rows in 1-step chunks; (3, 41, 5) one block in 2-step chunks, the last
#: one partial; (6, 40, 1) 5-step chunks of one column.  With the default
#: budget every shape here is one broadcast-and-reduce.
FOLD_SHAPES = [
    (13, 17, 5),
    (3, 41, 5),
    (1, 40, 9),
    (6, 40, 1),
    (1, 40, 1),
    (4, 0, 3),
    (0, 5, 3),
    (4, 5, 0),
]


def _fold_case(name, m, k, n):
    """The ring and ``A, B, C``: continuous floats with ±inf sentinels.

    Continuous values make the fold order show in the rounding.  The
    rings whose ⊕ identity is ±inf get it as a "no edge" sentinel, which
    their int8 variants saturate.
    """
    base = SEMIRINGS[name.removesuffix("-int8")]
    ring = base if name in SEMIRINGS else int8_variant(base)
    rng = np.random.default_rng([m, k, n])
    if ring.is_boolean():
        return ring, rng.random((m, k)) < 0.4, rng.random((k, n)) < 0.4, rng.random((m, n)) < 0.2
    scale = 4.0 if name in SEMIRINGS else 20.0
    a, b, c = (rng.uniform(-scale, scale, shape) for shape in ((m, k), (k, n), (m, n)))
    if np.isinf(base.oplus_identity):
        a[rng.random((m, k)) < 0.25] = base.oplus_identity
        b[rng.random((k, n)) < 0.25] = base.oplus_identity
    return ring, a, b, c


class TestKernelFoldOrder:
    """The streaming kernel gives the reference's left-to-right fold, bit for bit."""

    @pytest.mark.parametrize("budget", [32, ops._BUDGET])
    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("name", FOLD_RINGS)
    def test_matches_reference(self, name, shape, budget, monkeypatch):
        monkeypatch.setattr(ops, "_BUDGET", budget)
        ring, a, b, c = _fold_case(name, *shape)
        for acc in (None, c):
            got = mmo(ring, a, b, acc)
            assert got.dtype == ring.output_dtype
            np.testing.assert_array_equal(got, mmo_reference(ring, a, b, acc))
