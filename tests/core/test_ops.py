"""Tests for the whole-matrix mmo kernel and its scalar reference."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SEMIRINGS, Semiring, SemiringError, get_semiring, mmo, ops
from repro.core.ops import mmo_reference
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


def _assert_fold_matches_reference(name, shape):
    ring, a, b, c = _fold_case(name, *shape)
    for acc in (None, c):
        got = mmo(ring, a, b, acc)
        assert got.dtype == ring.output_dtype
        np.testing.assert_array_equal(got, mmo_reference(ring, a, b, acc))


class TestKernelFoldOrder:
    """The streaming kernel gives the reference's left-to-right fold, bit for bit."""

    @pytest.mark.parametrize("budget", [32, ops._BUDGET])
    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("name", FOLD_RINGS)
    def test_matches_reference(self, name, shape, budget, monkeypatch):
        monkeypatch.setattr(ops, "_BUDGET", budget)
        _assert_fold_matches_reference(name, shape)

    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("name", FOLD_RINGS)
    def test_row_buffer_loop_matches_reference(self, name, shape, monkeypatch):
        # A zero width sends every streamed launch of an arithmetic ring
        # through the row-buffer loop; the int8 variants cannot take it.
        monkeypatch.setattr(ops, "_BUDGET", 32)
        monkeypatch.setattr(ops, "_UNBUFFERED_WIDTH", 0)
        _assert_fold_matches_reference(name, shape)

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_row_buffer_only_for_arithmetic_otimes_on_wide_rows(self, name, monkeypatch):
        monkeypatch.setattr(ops, "_BUDGET", 32)
        sizes = []
        real = ops._ufunc_buffer
        monkeypatch.setattr(ops, "_ufunc_buffer", lambda size: sizes.append(size) or real(size))
        width = ops._UNBUFFERED_WIDTH
        ring, a, b, c = _fold_case(name, 2, 3, width)
        mmo(ring, a, b, c)
        mmo(ring, a, b[:, 1:], c[:, 1:])  # one lane too narrow
        arithmetic = name not in ("min-max", "max-min", "or-and")
        assert sizes == ([ops._ROW_BUFFER] if arithmetic else [])


def _assert_bits_equal(got, want):
    """Equal NaN positions; every other element equal bit for bit (so ±0 differ)."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint32)[~nan], want.view(np.uint32)[~nan])


class TestSignedZerosAndNaN:
    """±0.0, ±inf and NaN in A, B and C: the reference's bits on both loops."""

    VALUES = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -2.0])
    WEIGHTS = [0.36, 0.36, 0.04, 0.04, 0.1, 0.1]

    # With a 32-element budget, 1-step chunks in row blocks of 6 and 2-step
    # chunks in one block.  Short folds, so that 0·inf leaves most lanes
    # finite.
    @pytest.mark.parametrize("width", [ops._UNBUFFERED_WIDTH, 0], ids=["default", "row"])
    @pytest.mark.parametrize("shape", [(13, 6, 5), (3, 8, 5)], ids=["13x6x5", "3x8x5"])
    @pytest.mark.parametrize("name", sorted(set(SEMIRINGS) - {"or-and"}))
    def test_matches_reference_bits(self, name, shape, width, monkeypatch):
        monkeypatch.setattr(ops, "_BUDGET", 32)
        monkeypatch.setattr(ops, "_UNBUFFERED_WIDTH", width)
        m, k, n = shape
        rng = np.random.default_rng([m, k, n])
        a, b, c = (
            rng.choice(self.VALUES, size, p=self.WEIGHTS) for size in ((m, k), (k, n), (m, n))
        )
        a[0, 1] = b[2, 3] = c[1, 0] = np.nan
        ring = SEMIRINGS[name]
        for acc in (None, c):
            with np.errstate(invalid="ignore"):  # the reference's inf - inf
                want = mmo_reference(ring, a, b, acc)
            _assert_bits_equal(mmo(ring, a, b, acc), want)


def _recording_ring(seen, raise_on_call=None):
    """An arithmetic min-plus ring whose ⊗ records the ufunc buffer size it
    runs under, and raises on call ``raise_on_call`` of an mmo."""

    def otimes(x, y, out=None):
        seen.append(np.getbufsize())
        if len(seen) == raise_on_call:
            raise RuntimeError("⊗ failed")
        return np.add(x, y, out=out)

    ring = Semiring(name="recording", oplus=np.minimum, otimes=otimes, oplus_identity=np.inf)
    seen.clear()  # the k-padding check at construction called ⊗ once
    return ring


class TestUfuncBufferHygiene:
    """The kernel hands the caller's ufunc buffer size back on every exit."""

    @pytest.fixture(autouse=True)
    def _stream(self, monkeypatch):
        monkeypatch.setattr(ops, "_BUDGET", 32)  # (2, 3, width) streams in 1-step chunks

    @staticmethod
    def _launch(ring):
        return mmo(ring, np.ones((2, 3)), np.ones((3, ops._UNBUFFERED_WIDTH)))

    @staticmethod
    def _under_bufsize(size, body):
        caller = np.setbufsize(size)
        try:
            body()
            return np.getbufsize()
        finally:
            np.setbufsize(caller)

    @pytest.mark.parametrize("caller", [np.getbufsize(), 4096, 16])
    def test_after_return(self, caller):
        seen = []
        after = self._under_bufsize(caller, lambda: self._launch(_recording_ring(seen)))
        assert after == caller
        assert set(seen) == {ops._ROW_BUFFER}

    @pytest.mark.parametrize("caller", [np.getbufsize(), 4096])
    def test_after_raise_inside_the_loop(self, caller):
        seen = []

        def body():
            with pytest.raises(RuntimeError, match="⊗ failed"):
                self._launch(_recording_ring(seen, raise_on_call=2))

        assert self._under_bufsize(caller, body) == caller
        assert seen == [ops._ROW_BUFFER, ops._ROW_BUFFER]

    def test_in_a_thread_pool_worker(self):
        main = np.getbufsize()

        def worker(size):
            seen = []
            return self._under_bufsize(size, lambda: self._launch(_recording_ring(seen))), seen

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(worker, [4096, 2048, 1024, 512], timeout=60))
        assert [after for after, _ in results] == [4096, 2048, 1024, 512]
        assert all(set(seen) == {ops._ROW_BUFFER} for _, seen in results)
        assert np.getbufsize() == main


def _assert_or_and_matches_reference(a, b, c=None):
    """``mmo`` equals ``mmo_reference`` on or-and and leaves ``c`` unwritten."""
    c_before = None if c is None else c.copy()
    got = mmo("or-and", a, b, c)
    want = mmo_reference("or-and", a, b, c)
    assert got.dtype == np.dtype(bool) and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    if c is not None:
        np.testing.assert_array_equal(c, c_before)
        assert not np.shares_memory(got, c)
    return got


class TestPackedOrAnd:
    """Or-and on packed 64-bit words: the reference's bits on every operand."""

    def test_or_and_takes_the_packed_loop(self):
        assert ops.kernel_loop(SEMIRINGS["or-and"], 8, 8, 8) == "packed"
        # The operators decide, not the name.
        renamed = Semiring(name="reach", oplus=np.logical_or, otimes=np.logical_and,
                           oplus_identity=False, otimes_annihilator=False,
                           input_dtype=bool, output_dtype=bool)
        assert ops.kernel_loop(renamed, 8, 8, 8) == "packed"
        for name in sorted(set(SEMIRINGS) - {"or-and"}):
            assert ops.kernel_loop(SEMIRINGS[name], 8, 8, 8) != "packed"

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 130])
    def test_word_boundaries(self, n, k):
        rng = np.random.default_rng([n, k])
        a = np.ones((1, k), dtype=bool)
        b = rng.random((k, n)) < 0.5
        c = rng.random((1, n)) < 0.3
        for acc in (None, c):
            _assert_or_and_matches_reference(a, b, acc)
            _assert_or_and_matches_reference(~a, b, acc)

    def test_empty_and_all_true_rows(self):
        rng = np.random.default_rng(11)
        a = rng.random((6, 70)) < 0.1
        a[0] = False
        a[1] = True
        a[5] = False
        b = rng.random((70, 130)) < 0.2
        b[3] = True
        b[4] = False
        c = rng.random((6, 130)) < 0.1
        for acc in (None, c, np.zeros_like(c), np.ones_like(c)):
            _assert_or_and_matches_reference(a, b, acc)
        got = mmo("or-and", a, b)
        assert not got[0].any() and not got[5].any()  # the ⊕ identity
        assert got[1].all()  # B's row 3 is all true

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_float_operands_quantise_to_bool(self, dtype):
        # NaN and ±inf are true, ±0.0 is false, negative values are true.
        rng = np.random.default_rng(12)
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -2.5, 1.0], dtype=dtype)
        p = [0.4, 0.3, 0.05, 0.05, 0.05, 0.1, 0.05]
        a, b, c = (rng.choice(values, shape, p=p) for shape in ((9, 70), (70, 66), (9, 66)))
        _assert_or_and_matches_reference(a, b)
        _assert_or_and_matches_reference(a, b, c)

    def test_int_operands(self):
        rng = np.random.default_rng(13)
        a, b, c = (rng.integers(-2, 3, shape) for shape in ((7, 40), (40, 70), (7, 70)))
        _assert_or_and_matches_reference(a, b)
        _assert_or_and_matches_reference(a.astype(np.int8), b.astype(np.uint8), c)

    def test_transposed_and_strided_views(self):
        rng = np.random.default_rng(14)
        a = (rng.random((70, 9)) < 0.3).T  # column-major
        b = (rng.random((140, 400)) < 0.2)[::2, 1::3]  # (70, 133), strided
        c = (rng.random((18, 133)) < 0.2)[::2]
        assert not (a.flags.c_contiguous or b.flags.c_contiguous or c.flags.c_contiguous)
        _assert_or_and_matches_reference(a, b)
        _assert_or_and_matches_reference(a, b, c)

    @pytest.mark.parametrize("budget", [1, 9, 64])
    def test_a_row_whose_gather_exceeds_the_budget_is_split(self, budget, monkeypatch):
        # 130 columns are 3 words a row: a 9-word budget gathers 3 set bits
        # at a time, so the dense rows run in pieces and the sparse ones
        # share blocks.
        monkeypatch.setattr(ops, "_BUDGET", budget)
        rng = np.random.default_rng(budget)
        a = rng.random((12, 50)) < 0.15
        a[4] = True
        b = rng.random((50, 130)) < 0.1
        c = rng.random((12, 130)) < 0.05
        assert a.sum(axis=1).max() > max(1, budget // 3)
        _assert_or_and_matches_reference(a, b)
        _assert_or_and_matches_reference(a, b, c)

    def test_degenerate_shapes(self):
        for m, k, n in [(0, 4, 5), (3, 4, 0), (3, 0, 5), (0, 0, 0)]:
            a, b = np.ones((m, k), dtype=bool), np.ones((k, n), dtype=bool)
            got = _assert_or_and_matches_reference(a, b, np.ones((m, n), dtype=bool))
            assert got.all()
            if k == 0:
                assert not mmo("or-and", a, b).any()

    def test_pack_rows_layout(self):
        # Bit j of word w is column 64w + j; the tail past the last column
        # stays clear.
        bits = np.zeros((2, 70), dtype=bool)
        bits[0, 0] = bits[0, 64] = bits[1, 69] = True
        words = ops.pack_rows(bits)
        assert words.shape == (2, 2)
        assert words.tolist() == [[1, 1], [0, 1 << 5]]
        np.testing.assert_array_equal(ops.unpack_rows(words, 70), bits)


def _or_and_oracle(a, b):
    """The or-and product by integer matmul; fp32 counts below 2**24 are exact."""
    a, b = (np.asarray(x).astype(bool) for x in (a, b))
    if a.shape[1] < 2**24 and a.size * b.shape[1] > 2**24:
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def _or_and_words(a, b):
    """``or_and_words`` of ``a`` and packed ``b``, unpacked."""
    return ops.unpack_rows(ops.or_and_words(a, ops.pack_rows(np.asarray(b, dtype=bool))), b.shape[1])


@pytest.fixture
def table_slabs(monkeypatch):
    """The ``(lo, hi)`` byte-group slabs whose tables ``ops._byte_table`` built."""
    slabs = []
    real = ops._byte_table

    def spy(b_words, lo, hi, table):
        slabs.append((lo, hi))
        return real(b_words, lo, hi, table)

    monkeypatch.setattr(ops, "_byte_table", spy)
    return slabs


class TestByteTables:
    """Or-and by byte tables: a nonzero byte of an A row gathers one
    precomputed OR of up to 8 packed B rows, bit for bit the set-bit pass."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(0, 70),
        k=st.integers(0, 300),
        n=st.integers(0, 300),
        density_a=st.floats(0.0, 1.0),
        density_b=st.floats(0.0, 1.0),
        width=st.sampled_from([None, 1, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_integer_oracle(self, m, k, n, density_a, density_b, width, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((m, k)) < density_a
        b = rng.random((k, n)) < density_b
        with pytest.MonkeyPatch.context() as patch:
            if width is not None:  # else the launch's own key width
                patch.setattr(ops, "_key_width", lambda *args: width)
            got = _or_and_words(a, b)
        np.testing.assert_array_equal(got, (a.astype(np.int64) @ b.astype(np.int64)) > 0)

    @pytest.mark.parametrize(
        "shape,density,width",
        [((512, 512, 512), 0.5, 8), ((16, 16, 16), 1.0, 1), ((1024, 1024, 1024), 0.004, 1)],
    )
    def test_key_width_follows_the_launch(self, shape, density, width, table_slabs):
        m, k, n = shape
        rng = np.random.default_rng(m)
        a = rng.random((m, k)) < density
        b = rng.random((k, n)) < 0.5
        assert ops._key_width(m, k, n, np.count_nonzero(a)) == width
        np.testing.assert_array_equal(mmo("or-and", a, b), _or_and_oracle(a, b))
        assert bool(table_slabs) == (width == 8)

    @pytest.mark.parametrize(
        "m,k,n,budget",
        # 2 words a row: 4 groups a slab and 1024 keys a block, so 3 row
        # blocks a slab; then 1 group a slab (the clamp) and 21 keys a block.
        [(600, 100, 70, 2048), (40, 100, 130, 64)],
    )
    def test_slabs_and_row_blocks(self, m, k, n, budget, table_slabs, monkeypatch):
        monkeypatch.setattr(ops, "_BUDGET", budget)
        monkeypatch.setattr(ops, "_key_width", lambda *args: 8)
        rng = np.random.default_rng(budget)
        a = rng.random((m, k)) < 0.3
        a[3] = False
        a[5] = True
        b = rng.random((k, n)) < 0.025  # about half the outputs set
        words = -(-n // 64)
        per_slab = max(1, budget // (256 * words))
        assert m * per_slab > budget // words  # several row blocks a slab
        np.testing.assert_array_equal(_or_and_words(a, b), _or_and_oracle(a, b))
        groups = -(-k // 8)
        assert table_slabs == [
            (lo, min(lo + per_slab, groups)) for lo in range(0, groups, per_slab)
        ]

    @pytest.mark.parametrize("width", [1, 8])
    def test_all_true_empty_rows_and_degenerate_shapes_at_each_width(self, width, monkeypatch):
        monkeypatch.setattr(ops, "_key_width", lambda *args: width)
        rng = np.random.default_rng(width)
        a = rng.random((6, 70)) < 0.3
        a[0] = False
        a[1] = True
        b = rng.random((70, 130)) < 0.2
        c = rng.random((6, 130)) < 0.1
        for acc in (None, c):
            _assert_or_and_matches_reference(a, b, acc)
            _assert_or_and_matches_reference(np.ones_like(a), np.ones_like(b), acc)
        assert not mmo("or-and", a, b)[0].any()  # the ⊕ identity
        for m, k, n in [(0, 4, 5), (3, 4, 0), (3, 0, 5), (0, 0, 0), (1, 9, 1)]:
            got = _assert_or_and_matches_reference(
                np.ones((m, k), dtype=bool), np.ones((k, n), dtype=bool)
            )
            assert got.all() if k else not got.any()

    @pytest.mark.parametrize("width", [None, 1, 8])
    def test_or_and_words_reads_a_as_bool(self, width, monkeypatch):
        # Any nonzero entry is set, NaN included, as in mmo's packed branch.
        if width is not None:
            monkeypatch.setattr(ops, "_key_width", lambda *args: width)
        b = np.eye(2, 3, dtype=bool)
        want = [[True, False, False], [False, True, False]]
        ints = np.array([[2, 0], [0, 1]], np.int8)
        np.testing.assert_array_equal(_or_and_words(ints, b), want)
        floats = np.array([[np.nan, 0.0], [-0.0, -0.5]])
        np.testing.assert_array_equal(_or_and_words(floats, b), want)


#: The rings whose launches may run as one exact sgemm.
PLUS_RINGS = ["plus-mul", "plus-norm"]


@pytest.fixture
def sgemm_calls(monkeypatch):
    """The names of the rings whose launches ran ``ops._sgemm``, in order."""
    calls = []
    real = ops._sgemm

    def spy(ring, a, b, out):
        calls.append(ring.name)
        real(ring, a, b, out)

    monkeypatch.setattr(ops, "_sgemm", spy)
    return calls


def _mmo_path(calls, ring, a, b, c=None):
    """``mmo``'s result, and whether it ran the certified sgemm."""
    calls.clear()
    got = mmo(ring, a, b, c)
    return got, bool(calls)


def _streamed(ring, a, b, c=None):
    """``mmo`` with the certificate refused: the streaming loop's result."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_certified", lambda *args: False)
        return mmo(ring, a, b, c)


def _grid_maxima(name, bound):
    """Per-step maxima ``(ua_k, ub_k)``, in grid units, whose bound is ``bound``.

    Plus-mul: ``Σ ua·ub == bound``; plus-norm: ``Σ (ua + ub)² == bound``.
    Every unit is a whole number up to 2048, so fp16 holds it on any
    power-of-two grid, and an odd one occurs, so the grid is no coarser.
    """
    pairs = []
    if name == "plus-mul":
        while bound >= 2047**2:
            pairs.append((2047, 2047))
            bound -= 2047**2
        pairs += [(q, r) for q, r in ((bound // 2047, 2047), (bound % 2047, 1)) if q]
    else:
        while bound:  # odd reaches, each split into an odd and an even unit
            reach = min(int(np.sqrt(bound)), 4095)
            while reach * reach > bound or reach % 2 == 0:
                reach -= 1
            pairs.append((reach - reach // 2, reach // 2))
            bound -= reach * reach
    assert any(unit % 2 for pair in pairs for unit in pair)
    return pairs


def _edge_operands(name, bound, step, half_step_in=None):
    """A ``(2, k) × (k, 3)`` launch on the grid ``step`` whose bound is ``bound``.

    Row 0 of A and column 0 of B hold the maxima, signed so that output
    ``(0, 0)`` folds the whole bound.  ``half_step_in`` ("a" or "b") moves
    one other entry of that operand to half the step, which halves the
    common grid and so quadruples the bound in its units.
    """
    ua, ub = (np.array(units, dtype=np.float64) for units in zip(*_grid_maxima(name, bound)))
    k = len(ua)
    a, b = np.zeros((2, k)), np.zeros((k, 3))
    a[0] = ua * step
    a[1] = -ua * step
    b[:, 0] = (ub if name == "plus-mul" else -ub) * step
    b[:, 1] = ub * step
    if half_step_in == "a":
        a[1, 0] = step / 2
    elif half_step_in == "b":
        b[0, 2] = step / 2
    return a, b


def _grid_operands(name, m, k, n, seed):
    """Certified ``A, B, C`` (``m >= 3``, ``n >= 4``).

    A and B lie on a 1/4 grid in [-4, 4] and hold ±0.0.  Rows 1 and 2
    (plus-mul) or outputs (1, 1) and (2, 2) (plus-norm) fold to zero, from
    ±0.0 products or differences, where C holds -0.0.  C is off the grid
    and holds ±0.0, NaN and ±inf.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(-16, 17, (m, k)) / 4
    b = rng.integers(-16, 17, (k, n)) / 4
    a[rng.random((m, k)) < 0.15] = -0.0
    b[rng.random((k, n)) < 0.15] = -0.0
    a[1] = -0.0
    a[2, ::2] = 0.0
    if name == "plus-norm":
        b[:, 1] = a[1]
        b[:, 2] = np.where(a[2] == 0, -a[2], a[2])  # the zeros' signs flipped
    c = rng.uniform(-3, 3, (m, n))
    c[1:3] = -0.0
    c[1:3, ::3] = 0.0
    c[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    return a, b, c


class TestCertifiedSgemm:
    """Grid-valued plus-mul and plus-norm launches run as one fp32 sgemm,
    with the reference's bits; every other launch streams."""

    @pytest.mark.parametrize("shape", [(9, 13, 11), (3, 1, 4), (5, 40, 300)])
    @pytest.mark.parametrize("name", PLUS_RINGS)
    def test_matches_reference_and_streaming_bits(self, name, shape, sgemm_calls):
        a, b, c = _grid_operands(name, *shape, seed=sum(shape))
        ring = SEMIRINGS[name]
        for acc in (None, c):
            got, certified = _mmo_path(sgemm_calls, ring, a, b, acc)
            assert certified and got.dtype == np.float32
            _assert_bits_equal(got, mmo_reference(ring, a, b, acc))
            _assert_bits_equal(got, _streamed(ring, a, b, acc))

    @pytest.mark.parametrize("name", PLUS_RINGS)
    def test_an_sgemm_signing_zero_folds_negative_changes_nothing(self, name, monkeypatch):
        # The reference's fold starts at +0.0, so it is never -0.0, but an
        # sgemm may sign an exact zero either way.  Where C holds -0.0 that
        # sign would show: -0.0 + -0.0 is -0.0, where the reference has +0.0.
        real = ops._sgemm
        signed = []

        def negative_zeros(ring, a, b, out):
            real(ring, a, b, out)
            out[out == 0] = -0.0
            signed.append(int((out == 0).sum()))

        monkeypatch.setattr(ops, "_sgemm", negative_zeros)
        a, b, c = _grid_operands(name, 7, 10, 9, seed=5)
        for acc in (None, c):
            _assert_bits_equal(mmo(name, a, b, acc), mmo_reference(name, a, b, acc))
        assert signed and min(signed) > 0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("name", PLUS_RINGS)
    def test_bound_edge_on_the_grid(self, name, offset, sgemm_calls):
        # Certified only below 2**24 units: output (0, 0) folds the whole
        # bound, which fp32 cannot hold once it passes 2**24.
        a, b = _edge_operands(name, ops._EXACT_UNITS + offset, step=0.25)
        for acc in (None, np.full((2, 3), 0.5)):
            got, certified = _mmo_path(sgemm_calls, SEMIRINGS[name], a, b, acc)
            assert certified == (offset < 0)
            _assert_bits_equal(got, mmo_reference(name, a, b, acc))

    @pytest.mark.parametrize("side", [-1, 0, 1], ids=["under", "at", "over"])
    @pytest.mark.parametrize("half_step_in", ["a", "b"])
    @pytest.mark.parametrize("name", PLUS_RINGS)
    def test_bound_edge_off_the_grid(self, name, half_step_in, side, sgemm_calls):
        # 2**22 - 1, 2**22 and 2**22 + 1 units of the 1/4 grid certify on
        # it.  One entry at 1/8, in either operand and off the maxima, makes
        # them 2**24 - 4, 2**24 and 2**24 + 4 units of the 1/8 grid.
        bound = ops._EXACT_UNITS // 4 + side
        ring = SEMIRINGS[name]
        a, b = _edge_operands(name, bound, step=0.25)
        assert _mmo_path(sgemm_calls, ring, a, b)[1]
        a, b = _edge_operands(name, bound, step=0.25, half_step_in=half_step_in)
        got, certified = _mmo_path(sgemm_calls, ring, a, b)
        assert certified == (side < 0)
        _assert_bits_equal(got, mmo_reference(ring, a, b))

    @pytest.mark.parametrize("name", PLUS_RINGS)
    def test_units_past_int64_do_not_wrap(self, name, sgemm_calls):
        # 2**-24, fp16's least subnormal, sets the grid, so 256 is 2**32
        # units: a bound of about 2**64, which int64 would wrap to 0.
        a = np.array([[256.0, 2.0**-24]])
        b = np.array([[256.0], [2.0**-24]]) * (1 if name == "plus-mul" else -1)
        got, certified = _mmo_path(sgemm_calls, SEMIRINGS[name], a, b)
        assert not certified
        _assert_bits_equal(got, mmo_reference(name, a, b))

    def test_which_launches_take_the_sgemm(self, sgemm_calls):
        rng = np.random.default_rng(21)
        a, b, c = (rng.integers(-8, 9, shape) / 2 for shape in ((6, 7), (7, 5), (6, 5)))
        for name in PLUS_RINGS:
            assert _mmo_path(sgemm_calls, SEMIRINGS[name], a, b, c)[1]
        # The operators decide, not the name.
        renamed = [
            Semiring(name="dot", oplus=np.add, otimes=np.multiply,
                     oplus_identity=0.0, otimes_annihilator=0.0),
            Semiring(name="l2", oplus=np.add, otimes=SEMIRINGS["plus-norm"].otimes,
                     oplus_identity=0.0, associative_otimes=False,
                     distributive_otimes=False),
        ]
        for ring in renamed:
            assert _mmo_path(sgemm_calls, ring, a, b, c)[1]
        # Not on an fp32 datapath, nor on the int8 variants or other rings.
        fp32_in = Semiring(name="dot32", oplus=np.add, otimes=np.multiply,
                           oplus_identity=0.0, input_dtype=np.float32)
        others = [fp32_in, *(int8_variant(name) for name in PLUS_RINGS)]
        others += [SEMIRINGS[name] for name in sorted(set(SEMIRINGS) - set(PLUS_RINGS))]
        for ring in others:
            got, certified = _mmo_path(sgemm_calls, ring, a, b, c)
            assert not certified, ring.name
            np.testing.assert_array_equal(got, mmo_reference(ring, a, b, c))
        # Nor with a non-finite entry in A or in B.
        for value in (np.inf, -np.inf, np.nan):
            bad_a, bad_b = a.copy(), b.copy()
            bad_a[1, 2] = bad_b[1, 2] = value
            for x, y in ((bad_a, b), (a, bad_b)):
                for name in PLUS_RINGS:
                    got, certified = _mmo_path(sgemm_calls, SEMIRINGS[name], x, y, c)
                    assert not certified
                    with np.errstate(invalid="ignore"):  # the reference's inf - inf
                        want = mmo_reference(name, x, y, c)
                    _assert_bits_equal(got, want)
