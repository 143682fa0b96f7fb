"""Tests for the from-scratch CSR implementation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SEMIRINGS
from repro.sparse import CsrMatrix, SparseError


def _random_dense(rows, cols, density, seed=0):
    rng = np.random.default_rng(seed)
    dense = np.where(
        rng.random((rows, cols)) < density, rng.integers(1, 9, (rows, cols)), 0
    ).astype(np.float32)
    return dense


class TestRoundTrip:
    def test_dense_round_trip(self):
        dense = _random_dense(13, 17, 0.3)
        csr = CsrMatrix.from_dense(dense)
        np.testing.assert_array_equal(csr.to_dense(), dense)
        assert csr.nnz == int((dense != 0).sum())

    def test_infinity_implicit_value(self):
        dense = np.full((4, 4), np.inf)
        dense[1, 2] = 5.0
        csr = CsrMatrix.from_dense(dense, implicit=np.inf)
        assert csr.nnz == 1
        np.testing.assert_array_equal(csr.to_dense(implicit=np.inf), dense)

    def test_boolean_matrix(self):
        dense = np.random.default_rng(1).random((6, 6)) < 0.3
        csr = CsrMatrix.from_dense(dense, implicit=False)
        np.testing.assert_array_equal(csr.to_dense(implicit=False), dense)

    def test_empty_matrix(self):
        csr = CsrMatrix.from_dense(np.zeros((3, 5)))
        assert csr.nnz == 0
        assert csr.sparsity == 1.0
        np.testing.assert_array_equal(csr.to_dense(), np.zeros((3, 5)))

    def test_transpose(self):
        dense = _random_dense(9, 12, 0.4, seed=5)
        got = CsrMatrix.from_dense(dense).transpose()
        np.testing.assert_array_equal(got.to_dense(), dense.T)
        assert got.shape == (12, 9)

    def test_empty_matrix_honours_data_dtype(self):
        # Regression: the empty case used to densify via
        # np.result_type(type(implicit)) → float64, diverging from the
        # non-empty case, which uses the stored data dtype.
        empty = CsrMatrix.from_dense(np.zeros((3, 5), dtype=np.float16))
        full = CsrMatrix.from_dense(np.eye(3, 5, dtype=np.float16))
        assert empty.to_dense().dtype == np.float16
        assert empty.to_dense().dtype == full.to_dense().dtype

    def test_dtype_override(self):
        csr = CsrMatrix.from_dense(np.eye(2, dtype=np.float64))
        assert csr.to_dense(dtype=np.float32).dtype == np.float32


def _nonzero_reference(dense, implicit):
    """The arrays a 2-D ``np.nonzero`` over the explicit entries gives."""
    if isinstance(implicit, float) and np.isnan(implicit):
        mask = ~np.isnan(dense)
    else:
        mask = dense != implicit
    rows, cols = np.nonzero(mask)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return indptr, cols, dense[rows, cols]


class TestFromDenseIndices:
    """``from_dense`` equals the 2-D ``np.nonzero`` construction exactly."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(3)
        transposed = _random_dense(17, 29, 0.3, seed=4).T  # F-ordered view
        nan_implicit = np.where(rng.random((12, 9)) < 0.4, 2.5, np.nan)
        empty_rows = _random_dense(10, 21, 0.5, seed=6)
        empty_rows[[0, 3, 4, 9]] = 0.0
        all_implicit = np.full((5, 7), np.inf)
        return [
            (transposed, 0.0),
            (nan_implicit, np.nan),
            (empty_rows, 0.0),
            (all_implicit, np.inf),
            (np.zeros((4, 0)), 0.0),
        ]

    def test_matches_the_two_dimensional_nonzero(self):
        for dense, implicit in self._cases():
            csr = CsrMatrix.from_dense(dense, implicit=implicit)
            indptr, indices, data = _nonzero_reference(dense, implicit)
            for got, want in ((csr.indptr, indptr), (csr.indices, indices),
                              (csr.data, data)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype


class TestRingAwareDensify:
    def test_min_plus_fills_inf(self):
        # Regression: to_dense() defaults implicit=0.0, which silently
        # turns "no edge" into "zero-cost edge" under min-plus.
        adj = np.array([[np.inf, 3.0], [np.inf, np.inf]])
        csr = CsrMatrix.from_dense(adj, implicit=np.inf)
        dense = csr.to_dense_for("min-plus")
        assert dense.dtype == np.float32
        np.testing.assert_array_equal(dense, adj.astype(np.float32))

    def test_or_and_fills_false(self):
        pattern = np.random.default_rng(2).random((5, 5)) < 0.4
        csr = CsrMatrix.from_dense(pattern, implicit=False)
        dense = csr.to_dense_for("or-and")
        assert dense.dtype == np.bool_
        np.testing.assert_array_equal(dense, pattern)

    def test_identity_fill_for_every_ring(self):
        for name, ring in SEMIRINGS.items():
            empty = CsrMatrix.from_dense(
                np.full((2, 3), ring.oplus_identity),
                implicit=ring.oplus_identity,
            )
            dense = empty.to_dense_for(name)
            assert dense.dtype == ring.output_dtype, name
            np.testing.assert_array_equal(
                dense, np.full((2, 3), ring.oplus_identity, ring.output_dtype)
            )


class TestAccessors:
    def test_row(self):
        dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        csr = CsrMatrix.from_dense(dense)
        cols, vals = csr.row(1)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [1.0, 3.0])

    def test_row_out_of_range(self):
        csr = CsrMatrix.from_dense(np.zeros((2, 2)))
        with pytest.raises(SparseError, match="out of range"):
            csr.row(2)

    def test_density_and_sparsity(self):
        dense = np.eye(10)
        csr = CsrMatrix.from_dense(dense)
        assert csr.density == pytest.approx(0.1)
        assert csr.sparsity == pytest.approx(0.9)

    def test_memory_bytes(self):
        csr = CsrMatrix.from_dense(np.eye(10))
        assert csr.memory_bytes() == 11 * 4 + 10 * 4 + 10 * 4
        assert csr.memory_bytes(value_bytes=8) == 11 * 4 + 10 * 4 + 10 * 8


class TestValidation:
    def test_bad_indptr_shape(self):
        with pytest.raises(SparseError, match="indptr"):
            CsrMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_indptr_must_end_at_nnz(self):
        with pytest.raises(SparseError, match="end at nnz"):
            CsrMatrix((2, 2), np.array([0, 1, 3]), np.array([0]), np.array([1.0]))

    def test_decreasing_indptr(self):
        with pytest.raises(SparseError, match="non-decreasing"):
            CsrMatrix(
                (2, 2), np.array([0, 3, 2]), np.array([0, 1]), np.array([1.0, 2.0])
            )

    def test_column_out_of_range(self):
        with pytest.raises(SparseError, match="column index"):
            CsrMatrix((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))

    def test_unsorted_columns(self):
        with pytest.raises(SparseError, match="strictly increasing"):
            CsrMatrix(
                (1, 3), np.array([0, 2]), np.array([2, 0]), np.array([1.0, 2.0])
            )

    def test_length_mismatch(self):
        with pytest.raises(SparseError, match="lengths differ"):
            CsrMatrix((1, 3), np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))

    def test_non_2d_dense(self):
        with pytest.raises(SparseError, match="2-D"):
            CsrMatrix.from_dense(np.zeros(4))
