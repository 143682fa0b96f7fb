"""Whole-matrix SIMD² operations — the vectorised correctness oracle.

:func:`mmo` computes ``D = C ⊕ (A ⊗ B)`` for any of the nine semirings with
the exact mixed-precision rules of the hardware (fp16 inputs quantised, fp32
accumulation).  It plays the role the cuASR/CUTLASS "CUDA-core backend"
plays in the paper's validation flow (Section 5.1): a reference every other
backend — including the instruction-level emulator — must agree with.

The kernel streams the inner dimension the way the SIMD² unit folds each
inner tile step into its accumulator fragment (Figure 6).  Per block of
output rows it ⊗-broadcasts the inner steps in chunks: the first chunk is
⊕-reduced into an ``(rows, n)`` accumulator, and each product of a later
chunk — one column of A ⊗ one row of B, a rank-1 update — is ⊕-ed into
it in place.  On large launches a chunk is a single step.  Four
properties follow:

- **Fold order.**  Every output element is the left-to-right ⊕-fold of its
  products from ``k = 0``, and ``C`` is ⊕-ed in last — bit-identical to
  :func:`mmo_reference` on every ring, continuous floats included.
- **Bounded temporaries.**  One element budget (``_BUDGET``) bounds both
  the accumulator and a chunk of products, so they stay cache-resident
  however large ``k`` grows.  A launch whose whole ``(m, k, n)`` product
  fits the budget is one broadcast-and-reduce.
- **Quantise once.**  Operands are quantised to the input format straight
  from the caller's dtype.  Re-quantising an already-quantised operand
  preserves it, so backends that pre-quantise (``plan_mmo``) agree too.
- **Unbuffered rank-1 updates.**  NumPy stages broadcast ufunc operands
  through its ufunc buffer (8192 elements by default), and on rows up to
  about 2048 wide that staging dominates a rank-1 ⊗: ``np.add(col[:,
  None], row[None, :], out=chunk)`` on a 170×768 fp32 block costs 0.58–0.8
  ns per element by default, against 0.13–0.18 ns under a buffer no
  longer than one row (NumPy 2.4, 2-CPU x86 VM).  So the six rings whose
  ⊗ is arithmetic (plus-mul, min-plus, max-plus, min-mul, max-mul,
  plus-norm) stream rows at least ``_UNBUFFERED_WIDTH`` wide under a
  ``_ROW_BUFFER``-element buffer: about 2x on a 768×64×768 launch.  The
  selecting ⊗ of min-max and max-min, and narrower rows, measured faster
  under NumPy's default, so they keep it.  Only the staging changes:
  every fold keeps its order, and the caller's buffer size comes back on
  every exit.

Or-and (⊕ ``np.logical_or``, ⊗ ``np.logical_and``) does not stream: it
runs on packed words, one bit per element, as cuBool does (Section 5.2).
B's rows are packed into little-endian 64-bit words (:func:`pack_rows`).
Row ``i`` of the product ORs the packed rows of B that the set bits of
row ``i`` of A name (:func:`or_and_words`).  A dense A names many, so
the pass gathers by keys of one of two widths.  At width 1 a key is a
set bit of A and gathers one B row.  At width 8 it is a nonzero byte of
A's packed row and gathers one row of a byte table, the Method of Four
Russians (Arlazarov et al., 1970; M4RI's M4RM product): for each group
of 8 B rows, the 256 ORs of its subsets, built in 8 doubling steps.  A
row of the product then ORs at most ``⌈k/8⌉`` table rows in place of up
to ``k`` B rows, so its cost stops tracking A's density.  Tables are
built one slab of byte groups at a time, each slab within ``_BUDGET``
words, and every block of A rows gathers at most ``_BUDGET`` words, one
``np.bitwise_or.reduceat`` per block at either width.  The width is
chosen per launch from the shape and A's set bits (:func:`_key_width`):
bytes when the keys they save outweigh the table rows built, which
rules out small launches and sparse ones.  The result is unpacked once
and ``C`` is OR-ed in last.  Or-and is exact, so no grouping of the ORs
can change a bit.  On a 1024³ launch with C, one pinned CPU, the pass
takes 2.2–7.4 ms from density 0.004 to 0.93, against 3.9–33 ms for the
per-set-bit gather it replaced and 121–124 ms for the ``bool`` streaming
loop before that (2-CPU x86 VM, NumPy 2.4).

Plus-mul and plus-norm skip the streaming loop when a certificate shows
that no fold order can change a bit (:func:`_certified`, O(mk + kn) on
the quantised operands).  It holds when A and B are finite, every entry
of both is an integer on a common grid ``2**-s``, and the bound is below
``2**24`` units of the products' grid ``2**-2s``: ``Σ_k
max|a_k|·max|b_k|`` for plus-mul, ``Σ_k (max|a_k| + max|b_k|)²`` for
plus-norm.  Every product, and every partial sum of them in any order or
grouping, is then a whole number of units no larger than the bound,
which fp32 holds exactly.  So every add and multiply is exact, and the
reference's left-to-right fold, a BLAS sgemm's blocked one and a Tensor
Core's unspecified one all give the same value.  One fp32 ``np.matmul``
then writes the ``(m, n)`` output: ``A·B`` for plus-mul, and for
plus-norm the norm expansion ``[A, ‖a_i‖², 1]·[−2B; 1; ‖b_j‖²]``, whose
partial sums the same bound covers (``(|a| + |b|)² = a² + 2|a||b| +
b²``).  The identity and then C are ⊕-ed in place, so C needs neither
the grid nor the bound.  Only the sign of an exact zero could still
depend on the order.  The reference folds from the identity, +0.0, so
its fold is never −0.0, while an sgemm may sign an all-(−0.0) fold
either way, which would show where C holds −0.0: ⊕-ing the identity in
before C (the −0 rule) gives the reference's sign.  Launches that fail
the certificate, the int8 variants and the other rings stream.  On
``knn_wide``'s 4096×48×4096 plus-norm launch (points on a 1/16 grid in
[−8, 8], bound 2.6 M units) the path takes 32–44 ms against 396–420 ms
streamed, under 1 ms of it the certificate.  Continuous values sit on fp16
grids down to ``2**-24``, so all but the shallowest continuous launches
fail it and gain nothing (one pinned CPU of a 2-CPU x86 VM, NumPy 2.4
with its bundled OpenBLAS).
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np

from repro.core.precision import quantize_input, quantize_output
from repro.core.semiring import Semiring, SemiringError
from repro.core.registry import PLUS_NORM, get_semiring

__all__ = [
    "mmo",
    "mmo_reference",
    "or_and_words",
    "pack_rows",
    "unpack_rows",
]

#: Element budget of the kernel's temporaries: the ``(rows, n)`` accumulator
#: and one chunk of products, or, in 64-bit words, the table rows one block
#: of or-and gathers and one slab of its byte tables.  With 2**17 fp32
#: elements, a large launch's accumulator and one-step chunk (1 MB
#: together) fit a 2 MB L2.
_BUDGET = 2**17

#: Bits per packed word of the or-and path.
_WORD = 64

#: Bits per key of the or-and path's byte tables (:func:`or_and_words`).
_BYTE = 8

#: The prices :func:`_key_width` weighs, in gathered 64-bit words: per key
#: beside its words, per byte-table row built, and per launch that builds
#: tables.
_KEY_COST = 8
_TABLE_ROW_COST = 24
_TABLE_COST = 40_000

#: Output rows at least ``_UNBUFFERED_WIDTH`` wide run the arithmetic rings'
#: rank-1 updates under a ufunc buffer of ``_ROW_BUFFER`` elements, no longer
#: than one row, in place of NumPy's default (see the module docstring).
_UNBUFFERED_WIDTH = 256
_ROW_BUFFER = 256

#: fp32 holds every integer below ``2**24`` exactly: the certificate's bound,
#: in grid units.
_EXACT_UNITS = 2**24


def _validate_shapes(a: np.ndarray, b: np.ndarray, c: np.ndarray | None) -> tuple[int, int, int]:
    if a.ndim != 2 or b.ndim != 2:
        raise SemiringError(
            f"mmo operands must be 2-D, got A{a.shape} and B{b.shape}"
        )
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise SemiringError(f"inner dimensions differ: A is {a.shape}, B is {b.shape}")
    if c is not None and c.shape != (m, n):
        raise SemiringError(f"accumulator C has shape {c.shape}, expected {(m, n)}")
    return m, n, k


def _blocking(m: int, n: int) -> tuple[int, int]:
    """Rows per block and inner steps per ⊗ chunk, from the element budget.

    The accumulator (``rows × n``) and one chunk of products (``steps ×
    rows × n``) each stay within ``_BUDGET``, so a launch whose whole
    product fits is one broadcast-and-reduce.  A one-lane block (``m == n
    == 1``) takes one step per chunk: NumPy sums a longer one-lane
    reduction pairwise, not left to right.
    """
    lanes = max(n, 1)
    rows = max(1, min(m, _BUDGET // lanes))
    if rows * n == 1:
        return 1, 1
    return rows, max(1, _BUDGET // (rows * lanes))


def _packs(ring: Semiring) -> bool:
    """Whether ``ring`` is or-and, which runs on packed words."""
    return (
        ring.oplus is np.logical_or
        and ring.otimes is np.logical_and
        and ring.is_boolean()
    )


def kernel_loop(ring: Semiring, m: int, n: int, k: int) -> str:
    """The loop :func:`mmo` runs for an ``(m, n, k)`` launch under ``ring``.

    ``"packed"`` for or-and (:func:`or_and_words`).  Otherwise the
    streaming loop: ``"reduce"`` when one chunk holds every inner step
    (one broadcast-and-reduce, :func:`_blocking`), ``"unbuffered"`` when
    the rank-1 updates run under the row-sized ufunc buffer, and
    ``"stream"`` when they run under NumPy's default.  The substrate cost
    model (:mod:`repro.timing.backend_cost`) prices each launch from this
    same answer.  The shapes decide it, not the values, so a plus-mul or
    plus-norm launch that :func:`_certified` sends to the sgemm is priced
    as the streaming loop it skips.
    """
    if _packs(ring):
        return "packed"
    if k <= _blocking(m, n)[1]:
        return "reduce"
    if (
        isinstance(ring.oplus, np.ufunc)
        and n >= _UNBUFFERED_WIDTH
        and ring.otimes not in (np.minimum, np.maximum)
    ):
        return "unbuffered"
    return "stream"


def _grid_bits(x: np.ndarray) -> int:
    """The OR of the finite fp16 values ``x`` times ``2**24``.

    Each is an integer below ``2**40``, exact in fp32 and int64.  Chunks of
    ``_BUDGET`` entries bound the temporaries.
    """
    flat = x.ravel(order="K")
    bits = 0
    for start in range(0, flat.size, _BUDGET):
        units = (flat[start : start + _BUDGET] * 2.0**24).astype(np.int64)
        bits |= int(np.bitwise_or.reduce(units))
    return bits


def _certified(ring: Semiring, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the launch may run as one fp32 sgemm: the module docstring's
    certificate, in O(mk + kn).

    The ring must be plus-mul or plus-norm on the fp16-in, fp32-out
    datapath, told by its operators, not its name; ``a`` and ``b`` are the
    quantised operands in fp32.
    """
    if not (
        ring.oplus is np.add
        and (ring.otimes is np.multiply or ring.otimes is PLUS_NORM.otimes)
        and ring.input_dtype == np.float16
        and ring.output_dtype == np.float32
        and a.size
        and b.size
    ):
        return False
    # max|a_k| and max|b_k|, (k,) each; max and min propagate NaN.
    a_max = np.maximum(a.max(axis=0), -a.min(axis=0))
    b_max = np.maximum(b.max(axis=1), -b.min(axis=1))
    if not (np.isfinite(a_max).all() and np.isfinite(b_max).all()):
        return False
    # The maxima are entries, so their grid is no finer than the common one
    # and bounds no more units: a launch over the bound on it, as most
    # continuous ones are, fails without the O(mk + kn) pass.
    bits = _grid_bits(a_max) | _grid_bits(b_max)
    if not bits:
        return True  # every entry is 0
    if _bound(ring, a_max, b_max, bits) >= _EXACT_UNITS:
        return False
    return _bound(ring, a_max, b_max, bits | _grid_bits(a) | _grid_bits(b)) < _EXACT_UNITS


def _bound(ring: Semiring, a_max: np.ndarray, b_max: np.ndarray, bits: int) -> float:
    """The certificate's bound, in units of the products' grid, from the grid
    ``2**(t - 24)`` that the lowest set bit ``2**t`` of ``bits`` gives.

    float64 holds every term and partial sum below ``2**53`` exactly and
    rounds monotonically, so a bound at or over ``_EXACT_UNITS`` never
    rounds under it.  (In int64 a product of two ``2**40`` units would
    wrap.)
    """
    per_unit = 2.0**24 / (bits & -bits)  # grid units in 1.0
    a_units = a_max.astype(np.float64) * per_unit
    b_units = b_max.astype(np.float64) * per_unit
    if ring.otimes is np.multiply:
        return float(np.dot(a_units, b_units))
    reach = a_units + b_units
    return float(np.dot(reach, reach))


def _sgemm(ring: Semiring, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """A certified launch's products, folded by one fp32 ``np.matmul`` into ``out``.

    Plus-mul is ``A·B``.  Plus-norm is ``[A, ‖a_i‖², 1]·[−2B; 1; ‖b_j‖²]``,
    the norm expansion ``‖a_i‖² + ‖b_j‖² − 2·a_i·b_j``.
    """
    if ring.otimes is np.multiply:
        np.matmul(a, b, out=out)
        return
    m, k = a.shape
    lhs = np.empty((m, k + 2), dtype=np.float32)
    lhs[:, :k] = a
    np.einsum("ik,ik->i", a, a, out=lhs[:, k])
    lhs[:, k + 1] = 1.0
    rhs = np.empty((k + 2, b.shape[1]), dtype=np.float32)
    np.multiply(b, -2.0, out=rhs[:k])
    rhs[k] = 1.0
    np.einsum("kj,kj->j", b, b, out=rhs[k + 1])
    np.matmul(lhs, rhs, out=out)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """The rows of a ``bool`` matrix as little-endian 64-bit words.

    Bit ``j`` of word ``w`` of a row is column ``64·w + j``; the bits past
    the last column are clear.
    """
    rows, cols = bits.shape
    packed = np.zeros((rows, -(-cols // _WORD) * (_WORD // 8)), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """The ``(rows, cols)`` ``bool`` matrix of :func:`pack_rows` words."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=cols, bitorder="little").view(bool)


def _key_width(m: int, k: int, n: int, bits: float) -> int:
    """The key width of an ``(m, k, n)`` or-and launch whose A holds ``bits``
    set bits: 8 (byte tables) or 1 (set bits), for :func:`or_and_words`.

    Bytes pay when the keys they save, each priced at its gathered words
    plus ``_KEY_COST``, outweigh the table: ``_TABLE_ROW_COST`` per row
    built and ``_TABLE_COST`` once.  A's nonzero bytes are counted as if
    its set bits were spread evenly, which over-counts clustered bits and
    so leans toward set bits.  The substrate cost model
    (:mod:`repro.timing.backend_cost`) asks the same question at the
    expected count ``m·k·density_a``.
    """
    if bits <= 0:
        return 1
    saved = (bits - _nonzero_bytes(m, k, bits)) * (-(-n // _WORD) + _KEY_COST)
    built = -(-k // _BYTE) * 256 * _TABLE_ROW_COST + _TABLE_COST
    return _BYTE if saved > built else 1


def _nonzero_bytes(m: int, k: int, bits: float) -> float:
    """The nonzero bytes of an ``(m, k)`` A's packed rows, were its ``bits``
    set bits spread evenly."""
    if bits <= 0:
        return 0.0
    return m * -(-k // _BYTE) * (1.0 - (1.0 - bits / (m * k)) ** _BYTE)


def _byte_table(b_words: np.ndarray, lo: int, hi: int, table: np.ndarray) -> np.ndarray:
    """The byte table of groups ``lo`` to ``hi`` of 8 rows of ``b_words``,
    built in 8 doubling steps into the first rows of ``table``.

    Row ``256·(g - lo) + v`` ORs the rows ``8g + j`` whose bit ``j`` is set
    in ``v``, the order of ``np.packbits(..., bitorder="little")``.  Rows
    past the last of ``b_words`` count as clear.
    """
    words = b_words.shape[1]
    rows = b_words[_BYTE * lo : _BYTE * hi]
    if len(rows) < _BYTE * (hi - lo):  # k % 8 rows in the last group
        rows = np.concatenate([rows, np.zeros((_BYTE * (hi - lo) - len(rows), words), rows.dtype)])
    rows = rows.reshape(hi - lo, _BYTE, words)
    table = table[: (hi - lo) * 256].reshape(hi - lo, 256, words)
    table[:, 0] = 0
    for j in range(_BYTE):
        np.bitwise_or(table[:, : 1 << j], rows[:, j, None], out=table[:, 1 << j : 2 << j])
    return table.reshape(-1, words)


def _gather_or(
    out: np.ndarray, keys: np.ndarray, table: np.ndarray, width: int, first: bool,
    gathered: np.ndarray,
) -> None:
    """OR into each row of ``out`` the ``table`` rows its row of ``keys`` names.

    Key ``v`` in column ``g`` names table row ``g`` at width 1 (a set bit;
    the table is B's packed rows) and row ``256·g + v`` at width 8.  Zero
    keys name nothing.  A block of rows gathers at most ``len(gathered)``
    table rows into ``gathered``, folded per row by
    ``np.bitwise_or.reduceat``; a row whose keys alone gather more is ORed
    in pieces.  ``first`` writes the rows instead of ORing into them.
    """
    groups = keys.shape[1]
    per_block = len(gathered)
    # A bool sum counts set bits faster than count_nonzero.
    counts = keys.sum(axis=1) if width == 1 else np.count_nonzero(keys, axis=1)
    ends = np.cumsum(counts)
    firsts = ends - counts  # where each row's keys start, in row order
    start = 0
    while start < len(out):
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + per_block, "right")))
        block = keys[start:stop]
        index = np.flatnonzero(block)
        if width == _BYTE:
            values = block.ravel()[index]
            index %= groups
            index <<= 8
            index |= values
        else:
            index %= groups
        # Every index is in range.  Mode "clip" writes into ``gathered``
        # directly; the default "raise" stages the rows through a copy.
        if len(index) > per_block:  # one row
            for lo in range(0, len(index), per_block):
                piece = index[lo : lo + per_block]
                rows = np.take(table, piece, axis=0, out=gathered[: len(piece)], mode="clip")
                out[start] |= np.bitwise_or.reduce(rows)
        elif len(index):
            hit = start + np.flatnonzero(counts[start:stop])
            heads = firsts[hit] - firsts[start]
            rows = np.take(table, index, axis=0, out=gathered[: len(index)], mode="clip")
            got = np.bitwise_or.reduceat(rows, heads, axis=0)
            if first:
                out[hit] = got
            else:
                out[hit] |= got
        start = stop


def or_and_words(a: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """The or-and product of A and row-packed B, packed the same way.

    A is read as ``bool``: any nonzero entry, NaN included, is set.  Row
    ``i`` of the result ORs the rows of ``b_words`` (:func:`pack_rows`) at
    the set bits of row ``i`` of A, gathered by keys of the width
    :func:`_key_width` picks from the shape and A's set bits.  Width 1
    gathers one B row per set bit.  Width 8 gathers one byte-table row
    (:func:`_byte_table`) per nonzero byte of A's packed rows, building the
    tables one slab of byte groups at a time so that each slab's table
    stays within ``_BUDGET`` words (one group at least).  A row without set
    bits stays clear, the ⊕ identity.

    The slab's table and the gathered rows share one allocation per
    launch.  As separate arrays, the allocator returned and re-faulted
    them from one launch to the next at some sizes: a 384³ all-true launch
    inside ``mmo`` read 1.2–1.3 ms with about 430 page faults, against
    0.65 ms with about 30.
    """
    a = np.asarray(a).astype(bool, copy=False)
    out = np.zeros((a.shape[0], b_words.shape[1]), dtype=b_words.dtype)
    if not out.size:
        return out
    (m, k), words = a.shape, b_words.shape[1]
    bits = np.count_nonzero(a)
    per_block = max(1, min(bits, _BUDGET // words))  # keys, one table row each
    if _key_width(m, k, words * _WORD, bits) == 1:
        gathered = np.empty((per_block, words), dtype=b_words.dtype)
        _gather_or(out, a, b_words, 1, True, gathered)
        return out
    keys = np.packbits(a, axis=1, bitorder="little")
    per_slab = max(1, min(keys.shape[1], _BUDGET // (256 * words)))
    work = np.empty((per_slab * 256 + per_block, words), dtype=b_words.dtype)
    table, gathered = work[: per_slab * 256], work[per_slab * 256 :]
    for lo in range(0, keys.shape[1], per_slab):
        hi = min(lo + per_slab, keys.shape[1])
        slab = np.ascontiguousarray(keys[:, lo:hi])
        _gather_or(out, slab, _byte_table(b_words, lo, hi, table), _BYTE, lo == 0, gathered)
    return out


@contextlib.contextmanager
def _ufunc_buffer(size: int) -> Iterator[None]:
    """Run the block under a ufunc buffer of ``size`` elements.

    The caller's size comes back on every exit.  NumPy >= 2 would restore it
    with the enclosing ``errstate`` anyway; NumPy 1.x would not.  The size is
    per thread in both.
    """
    caller = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(caller)


def mmo(
    ring: Semiring | str,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``D = C ⊕ (A ⊗ B)`` under ``ring``.

    Parameters
    ----------
    ring:
        A :class:`~repro.core.semiring.Semiring` or its name/mnemonic.
    a, b:
        Input matrices of shape ``(m, k)`` and ``(k, n)``; quantised to the
        ring's input dtype (fp16 or bool) before computing.
    c:
        Optional ``(m, n)`` accumulator; defaults to the ``⊕`` identity,
        in which case ``D`` is just the reduced products.

    Returns
    -------
    numpy.ndarray
        ``(m, n)`` result in the ring's output dtype (fp32 or bool).
    """
    ring = get_semiring(ring)
    a = np.asarray(a)
    b = np.asarray(b)
    c_arr = None if c is None else np.asarray(c)
    m, n, k = _validate_shapes(a, b, c_arr)
    loop = kernel_loop(ring, m, n, k)
    if loop == "packed":
        a_bits = quantize_input(a, ring).astype(bool, copy=False)
        b_bits = quantize_input(b, ring).astype(bool, copy=False)
        out = unpack_rows(or_and_words(a_bits, pack_rows(b_bits)), n)
        if c_arr is not None:
            ring.oplus(np.asarray(c_arr, dtype=bool), out, out=out)
        return out

    a_quant = quantize_input(a, ring).astype(ring.output_dtype)
    b_rows = quantize_input(b, ring).astype(ring.output_dtype)
    out = np.empty((m, n), dtype=ring.output_dtype)
    if _certified(ring, a_quant, b_rows):
        _sgemm(ring, a_quant, b_rows, out)
        # The reference's fold starts from the identity, +0.0, so it is never
        # -0.0, whatever sign the sgemm gives an exact zero (the -0 rule).
        # C is ⊕-ed in last, as in the streaming loop.
        ring.oplus(ring.oplus_identity, out, out=out)
        if c_arr is not None:
            ring.oplus(np.asarray(c_arr, dtype=ring.output_dtype), out, out=out)
        return out

    # (k, m): row kk is column kk of A, contiguous for the rank-1 steps.
    a_cols = np.ascontiguousarray(a_quant.T)
    rows, steps = _blocking(m, n)
    in_place = isinstance(ring.oplus, np.ufunc)

    # Padded lanes may compute inf·0 = nan; those land only in padded outputs.
    buffer = (
        _ufunc_buffer(_ROW_BUFFER) if loop == "unbuffered" else contextlib.nullcontext()
    )
    with np.errstate(invalid="ignore"), buffer:
        for start in range(0, m, rows):
            block = slice(start, start + rows)
            cols = a_cols[:, block]  # (k, r)
            # The first chunk of inner steps is ⊕-reduced from its first
            # product (along axis 0, so NumPy folds lane by lane, left to
            # right); every later product is ⊕-ed into acc in k order.
            acc = ring.reduce(
                ring.otimes(cols[:steps, :, None], b_rows[:steps, None, :]), axis=0
            )
            if in_place and k > steps:  # ufunc ⊕, and an ⊗ that takes out=
                chunk = np.empty((steps, *acc.shape), dtype=ring.output_dtype)
            for kk in range(steps, k, steps):
                a_k = cols[kk : kk + steps, :, None]
                b_k = b_rows[kk : kk + steps, None, :]
                if in_place:
                    for product in ring.otimes(a_k, b_k, out=chunk[: len(a_k)]):
                        ring.oplus(acc, product, out=acc)
                else:  # the int8 variants' saturating wrappers
                    for product in ring.otimes(a_k, b_k):
                        acc = ring.oplus(acc, product)
            # Without C the identity is still ⊕-ed in, as the reference does:
            # on the plus rings a -0.0 fold becomes 0.0.
            c_block = ring.oplus_identity if c_arr is None else c_arr[block]
            out[block] = ring.combine(c_block, acc)
    return out


def mmo_reference(
    ring: Semiring | str,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
) -> np.ndarray:
    """Triple-loop scalar reference of :func:`mmo` (tests only; O(mnk) Python).

    Mirrors the paper's Figure 1 loop nests literally.  Slow — use only on
    small matrices.
    """
    ring = get_semiring(ring)
    a = quantize_input(np.asarray(a), ring).astype(ring.output_dtype)
    b = quantize_input(np.asarray(b), ring).astype(ring.output_dtype)
    c_arr = None if c is None else np.asarray(c)
    m, n, k = _validate_shapes(a, b, c_arr)
    acc = ring.full((m, n)) if c_arr is None else quantize_output(c_arr, ring)

    out = np.empty((m, n), dtype=ring.output_dtype)
    for i in range(m):
        for j in range(n):
            value = ring.oplus_identity
            for kk in range(k):
                prod = ring.otimes(a[i, kk], b[kk, j])
                value = ring.oplus(
                    np.asarray(value, dtype=ring.output_dtype),
                    np.asarray(prod, dtype=ring.output_dtype),
                )
            out[i, j] = ring.oplus(acc[i, j], np.asarray(value, dtype=ring.output_dtype))
    return out
