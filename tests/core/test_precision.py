"""Direct tests for the precision helpers."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SEMIRINGS
from repro.core.precision import (
    HALF_MAX,
    quantize_input,
    quantize_output,
    representable_input,
)


class TestQuantizeInput:
    def test_fp16_rounds(self):
        ring = SEMIRINGS["min-plus"]
        got = quantize_input(np.array([1.0 / 3.0]), ring)
        assert got.dtype == np.float16
        assert got[0] == np.float16(1.0 / 3.0)

    def test_infinities_survive_fp16(self):
        ring = SEMIRINGS["min-plus"]
        got = quantize_input(np.array([np.inf, -np.inf]), ring)
        assert np.isposinf(got[0]) and np.isneginf(got[1])

    def test_fp16_overflow_to_inf(self):
        ring = SEMIRINGS["min-plus"]
        got = quantize_input(np.array([HALF_MAX * 4]), ring)
        assert np.isposinf(got[0])

    def test_boolean_ring(self):
        ring = SEMIRINGS["or-and"]
        got = quantize_input(np.array([0.0, 2.0, -1.0]), ring)
        np.testing.assert_array_equal(got, [False, True, True])

    def test_integer_ring_saturates(self):
        from repro.core import int8_variant

        ring = int8_variant("plus-mul")
        got = quantize_input(np.array([300.0, -300.0, 2.6, np.nan]), ring)
        np.testing.assert_array_equal(got, np.array([127, -128, 3, 0], np.int8))


class TestQuantizeOutput:
    def test_fp32(self):
        ring = SEMIRINGS["min-plus"]
        got = quantize_output(np.array([1.0], dtype=np.float64), ring)
        assert got.dtype == np.float32


class TestRepresentable:
    def test_grid_values_representable(self):
        ring = SEMIRINGS["min-plus"]
        assert representable_input(np.array([0.125, 3.0, np.inf]), ring)

    def test_non_grid_values_not_representable(self):
        ring = SEMIRINGS["min-plus"]
        assert not representable_input(np.array([1.0 / 3.0]), ring)


def _argsort_select(distances, k):
    """The stable-argsort selection ``select_k_smallest`` replaced, frozen."""
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    values = np.take_along_axis(distances, order, axis=1)
    return order, values


def _tie_heavy(rng, shape, dtype):
    """Few distinct values plus NaN and ±inf, so rows tie past ``k``."""
    distances = rng.integers(0, 4, shape).astype(dtype)
    draw = rng.random(shape)
    distances[draw < 0.1] = np.nan
    distances[(draw >= 0.1) & (draw < 0.15)] = np.inf
    distances[(draw >= 0.15) & (draw < 0.2)] = -np.inf
    return distances


class TestSelectKSmallest:
    def test_sorted_with_index_tiebreak(self):
        from repro.apps import select_k_smallest

        distances = np.array([[3.0, 1.0, 1.0, 0.5]])
        indices, values = select_k_smallest(distances, 3)
        np.testing.assert_array_equal(indices, [[3, 1, 2]])
        np.testing.assert_array_equal(values, [[0.5, 1.0, 1.0]])

    def _assert_matches_argsort(self, distances, k):
        """Equal to a stable argsort bit for bit, so ``-0.0 != 0.0`` here."""
        from repro.apps import select_k_smallest

        indices, values = select_k_smallest(distances, k)
        expected_indices, expected_values = _argsort_select(distances, k)
        assert indices.dtype == np.intp
        assert values.dtype == distances.dtype
        assert indices.shape == values.shape == (distances.shape[0], k)
        np.testing.assert_array_equal(indices, expected_indices)
        np.testing.assert_array_equal(
            values.view(np.uint8), expected_values.view(np.uint8)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # 600 rows cross two boundaries of the selection's 256-row blocks.
    @pytest.mark.parametrize(
        "shape", [(7, 9), (600, 40), (0, 5), (6, 1), (600, 300)]
    )
    def test_equals_stable_argsort(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        distances = _tie_heavy(rng, shape, dtype)
        cols = shape[1]
        for k in sorted({1, max(cols - 1, 1), cols}):
            self._assert_matches_argsort(distances, k)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(0, 40),
        cols=st.integers(1, 400),
        dtype=st.sampled_from([np.float32, np.float64]),
        palette=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.5, np.inf, -np.inf, np.nan]),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_stable_argsort_on_few_values(
        self, data, rows, cols, dtype, palette, seed
    ):
        k = data.draw(st.integers(1, cols), label="k")
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(len(palette)))
        distances = rng.choice(np.array(palette), (rows, cols), p=weights)
        self._assert_matches_argsort(distances.astype(dtype), k)

    @pytest.mark.parametrize("cols", [1, 50, 127, 128, 129, 255, 300, 1000])
    def test_cols_around_the_group_count(self, cols):
        """Fewer columns than groups, and columns not a multiple of them:
        the last ``cols % groups`` columns join the first groups."""
        rng = np.random.default_rng(cols)
        distances = _tie_heavy(rng, (20, cols), np.float32)
        distances[:, -1] = -np.inf  # a tail column holds each row's minimum
        for k in sorted({1, min(cols, 2), min(cols, 16), cols}):
            self._assert_matches_argsort(distances, k)

    @pytest.mark.parametrize("k", [127, 128, 129, 200, 399, 400])
    def test_k_around_the_group_count_and_k_equal_to_cols(self, k):
        rng = np.random.default_rng(k)
        self._assert_matches_argsort(_tie_heavy(rng, (30, 400), np.float64), k)
        continuous = rng.random((30, 400)).astype(np.float32)
        self._assert_matches_argsort(continuous, k)

    @pytest.mark.parametrize("k", [1, 16, 20])
    def test_k_smallest_in_one_column_residue_class(self, k):
        """Each row's smallest entries fall in one group (two on odd rows),
        so the other groups' minima sit far above the row's k-th value."""
        rng = np.random.default_rng(k)
        distances = rng.random((40, 128 * 20)).astype(np.float32) + 1.0
        for r in range(len(distances)):
            residue = r % 128
            distances[r, residue::128] = rng.integers(0, 3, 20) * 0.25
        distances[1::2, 5::128] = 0.0  # a second class, of ties at zero
        self._assert_matches_argsort(distances, k)

    def test_nan_group_bound_with_k_numbers_takes_the_fallback(self):
        """A row whose numbers sit in fewer than ``k`` groups has a NaN
        group bound, though it holds at least ``k`` numbers."""
        from repro.apps.knn import _SELECT_GROUPS

        cols = 4 * _SELECT_GROUPS
        distances = np.full((5, cols), np.nan)
        distances[0, [0, _SELECT_GROUPS, 2 * _SELECT_GROUPS]] = [3.0, 1.0, 2.0]
        distances[1, 7::_SELECT_GROUPS] = [0.0, -0.0, 0.0, -0.0]
        distances[2, 1::_SELECT_GROUPS] = 5.0
        distances[2, 2::_SELECT_GROUPS] = [-np.inf, 4.0, np.inf, 4.0]
        distances[3, :3] = [2.0, 1.0, 1.0]  # three groups, one number each
        distances[4] = np.arange(cols)  # a row on the group path
        for k in (2, 3, 4):
            self._assert_matches_argsort(distances, k)
            self._assert_matches_argsort(distances.astype(np.float32), k)

    def test_ties_at_kth_value(self):
        distances = np.array([[2.0, 1.0, 1.0, 1.0, 0.0, 1.0]], np.float32)
        self._assert_matches_argsort(distances, 2)
        self._assert_matches_argsort(distances, 3)
        self._assert_matches_argsort(np.zeros((3, 8)), 4)
        self._assert_matches_argsort(np.ones((3, 700), np.float32), 16)

    def test_rows_with_fewer_than_k_numbers_end_in_nan(self):
        distances = np.array(
            [[np.nan, 3.0, np.nan, 1.0], [np.nan] * 4, [4.0, np.nan, -np.inf, np.inf]]
        )
        self._assert_matches_argsort(distances, 3)
        self._assert_matches_argsort(distances, 4)
        wide = np.full((4, 300), np.nan, np.float32)
        wide[0, [3, 150, 299]] = [1.0, -0.0, 0.0]
        wide[2, 128] = np.inf
        wide[3, :] = 1.0
        for k in (4, 16, 300):
            self._assert_matches_argsort(wide, k)

    @pytest.mark.parametrize(
        "view", [lambda d: d[:, ::2], lambda d: d.T, lambda d: d[::-3, 1:]],
        ids=["every-other-column", "transposed", "reversed-rows"],
    )
    def test_non_contiguous_input(self, view):
        rng = np.random.default_rng(3)
        distances = view(_tie_heavy(rng, (600, 600), np.float32))
        assert not distances.flags.c_contiguous
        for k in (1, 16, 200):
            self._assert_matches_argsort(distances, k)

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_outside_one_to_cols_rejected(self, k):
        from repro.apps import select_k_smallest

        with pytest.raises(ValueError, match="out of range"):
            select_k_smallest(np.zeros((3, 5)), k)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    def test_non_2d_distances_rejected_naming_the_shape(self, shape):
        from repro.apps import select_k_smallest

        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            select_k_smallest(np.zeros(shape), 1)


class TestMinimaxMatrix:
    def test_direct_call(self):
        from repro.apps import minimax_matrix

        weights = np.full((3, 3), np.inf)
        np.fill_diagonal(weights, 0.0)
        weights[0, 1] = weights[1, 0] = 5.0
        weights[1, 2] = weights[2, 1] = 2.0
        result = minimax_matrix(weights)
        assert result.matrix[0, 2] == 5.0  # bottleneck of the only path
        assert result.converged


class TestScaledArea:
    def test_direct_call(self):
        from repro.hwmodel import scaled_area

        assert scaled_area("mul_fused", 16) == pytest.approx(64 * 0.0125)
        assert scaled_area("fabric", 16) == pytest.approx(0.072)
