"""Tests for the fitted substrate prices of repro.timing.backend_cost."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.backends.sparse import absorbing_rings
from repro.core import ops
from repro.core.ops import kernel_loop
from repro.core.registry import SEMIRINGS
from repro.plan import MODEL_ERROR_BAND
from repro.timing.backend_cost import (
    TERMS,
    UNKNOWN_COST_S,
    CostModelError,
    LaunchSpec,
    estimate,
    terms,
)
from repro.timing.backend_cost_fit import COEFFICIENTS

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "fit_backend_cost.py"


@pytest.fixture(scope="module")
def tool():
    """``tools/fit_backend_cost.py``, imported from its path."""
    spec = importlib.util.spec_from_file_location("fit_backend_cost", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def records(tool):
    with open(tool.SWEEP, encoding="utf-8") as fh:
        return json.load(fh)["records"]


class TestLaunchSpec:
    def test_negative_dimension_rejected(self):
        with pytest.raises(CostModelError, match="dimensions"):
            LaunchSpec("min-plus", -1, 4, 4)

    def test_density_outside_unit_interval_rejected(self):
        with pytest.raises(CostModelError, match="density_b"):
            LaunchSpec("min-plus", 4, 4, 4, density_b=1.5)


class TestFittedTable:
    def test_every_ring_has_dense_and_emulate_coefficients(self):
        for backend in ("vectorized", "emulate"):
            assert set(COEFFICIENTS[backend]) == set(SEMIRINGS)

    def test_every_absorbing_ring_has_sparse_coefficients(self):
        assert set(COEFFICIENTS["sparse"]) == set(absorbing_rings())

    def test_coefficients_are_non_negative_and_match_the_terms(self):
        for backend, rings in COEFFICIENTS.items():
            for ring, values in rings.items():
                assert len(values) == len(TERMS[backend]), (backend, ring)
                assert all(v >= 0.0 for v in values), (backend, ring)

    def test_committed_coefficients_match_a_refit_of_the_sweep(
        self, tool, records
    ):
        refit = tool.fit(records)
        assert set(refit) == set(COEFFICIENTS)
        for backend, rings in refit.items():
            assert set(rings) == set(COEFFICIENTS[backend])
            for ring, values in rings.items():
                for fitted, committed in zip(values, COEFFICIENTS[backend][ring]):
                    assert math.isclose(
                        fitted, committed, rel_tol=1e-2, abs_tol=1e-15
                    ), (backend, ring)

    def test_model_picks_within_the_error_band_at_every_sweep_point(
        self, tool, records
    ):
        # The backend the model picks was measured within the band of the
        # fastest backend measured at the same point.
        _, mispick = tool.residual(records)
        assert mispick <= MODEL_ERROR_BAND


class TestPrices:
    def test_unknown_backend_prices_infinite(self):
        assert estimate("no-such-backend", LaunchSpec("min-plus", 8, 8, 8)) == (
            UNKNOWN_COST_S
        )

    @pytest.mark.parametrize("backend", sorted(TERMS))
    def test_prices_are_positive_and_grow_with_the_launch(self, backend):
        ring = "min-plus"
        small = estimate(backend, LaunchSpec(ring, 16, 16, 16))
        large = estimate(backend, LaunchSpec(ring, 64, 64, 64))
        assert 0.0 < small < large < math.inf

    def test_prices_differ_by_ring(self):
        spec = {ring: LaunchSpec(ring, 1024, 1024, 1024) for ring in SEMIRINGS}
        prices = {ring: estimate("vectorized", s) for ring, s in spec.items()}
        # The selecting ⊗ of or-and is the cheapest dense pass by far.
        assert min(prices, key=prices.get) == "or-and"
        assert prices["min-plus"] > 2 * prices["or-and"]

    def test_sparse_price_grows_with_density(self):
        prices = [
            estimate("sparse", LaunchSpec("or-and", 256, 256, 256,
                                          density_a=d, density_b=d))
            for d in (0.001, 0.01, 0.1, 1.0)
        ]
        assert prices == sorted(prices)


class TestTerms:
    @pytest.mark.parametrize(
        "ring,size,loop",
        [
            ("min-plus", 16, "pair_reduce"),
            ("min-plus", 192, "pair_stream"),
            ("min-plus", 768, "pair_unbuffered"),
            ("or-and", 768, "packed"),
            ("min-max", 1024, "pair_stream"),
        ],
    )
    def test_dense_pairs_follow_the_kernel_loop(self, ring, size, loop):
        values = dict(
            zip(TERMS["vectorized"],
                terms("vectorized", LaunchSpec(ring, size, size, size)))
        )
        pairs = float(size**3)
        for name in ("pair_reduce", "pair_stream", "pair_unbuffered"):
            assert values[name] == (pairs if name == loop else 0.0)
        assert kernel_loop(SEMIRINGS[ring], size, size, size) == loop.removeprefix("pair_")

    def test_packed_terms_count_gathered_rows_and_words(self):
        # A small launch gathers one packed B row per set bit of the
        # unpadded A (key width 1); a row of the padded 208-wide B is 4
        # words, and no table is built.
        values = dict(
            zip(TERMS["vectorized"],
                terms("vectorized", LaunchSpec("or-and", 100, 200, 50,
                                               density_a=0.1, density_b=0.2)))
        )
        assert ops._key_width(112, 64, 208, 100 * 50 * 0.1) == 1
        assert values["gathered_row"] == pytest.approx(100 * 50 * 0.1)
        assert values["gathered_word"] == pytest.approx(100 * 50 * 0.1 * 4)
        assert values["table_word"] == 0.0
        # A dense 1024³ launch gathers one byte-table row per nonzero byte
        # of A (key width 8), as many as evenly spread set bits fill, each
        # 16 words, after building 256 rows per group of 8 rows of B.
        bits = 1024 * 1024 * 0.5
        values = dict(
            zip(TERMS["vectorized"],
                terms("vectorized", LaunchSpec("or-and", 1024, 1024, 1024,
                                               density_a=0.5, density_b=0.5)))
        )
        assert ops._key_width(1024, 1024, 1024, bits) == 8
        nonzero_bytes = 1024 * 128 * (1 - 0.5**8)
        assert values["gathered_row"] == pytest.approx(nonzero_bytes)
        assert values["gathered_word"] == pytest.approx(nonzero_bytes * 16)
        assert values["table_word"] == 128 * 256 * 16
        for ring in sorted(set(SEMIRINGS) - {"or-and"}):
            spec = LaunchSpec(ring, 100, 200, 50, density_a=0.1, density_b=0.2)
            assert terms("vectorized", spec)[-3:] == (0.0, 0.0, 0.0)

    def test_packed_price_grows_with_the_density_of_a(self):
        prices = [
            estimate("vectorized", LaunchSpec("or-and", 1024, 1024, 1024,
                                              density_a=d, density_b=d))
            for d in (0.004, 0.02, 0.19, 0.93)
        ]
        assert prices == sorted(prices)
        assert prices[-1] > 2 * prices[0]

    def test_dense_terms_price_the_padded_launch(self):
        padded = terms("vectorized", LaunchSpec("plus-mul", 16, 16, 16))
        assert terms("vectorized", LaunchSpec("plus-mul", 1, 9, 16)) == padded
        assert terms("emulate", LaunchSpec("plus-mul", 1, 70, 24)) == (
            1.0, 5.0, 10.0
        )

    def test_sparse_terms_count_the_expected_work(self):
        values = dict(
            zip(TERMS["sparse"],
                terms("sparse", LaunchSpec("or-and", 100, 200, 50,
                                           density_a=0.1, density_b=0.2)))
        )
        assert values["entry"] == 100 * 50 + 50 * 200 + 100 * 200
        assert values["slice"] == pytest.approx(100 * 50 * 0.1)
        assert values["product"] == pytest.approx(100 * 50 * 0.1 * 200 * 0.2)
        assert values["row"] == pytest.approx(100 * (1 - 0.9**50))
        assert values["scattered"] == pytest.approx(values["product"] * 0.8)

    def test_sparse_terms_of_an_empty_operand(self):
        values = terms("sparse", LaunchSpec("or-and", 8, 8, 8,
                                            density_a=0.0, density_b=0.0))
        assert values[2:] == (0.0, 0.0, 0.0, 0.0)
