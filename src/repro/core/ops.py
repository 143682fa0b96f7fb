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
row ``i`` of A name (:func:`or_and_words`), per block of A rows whose
gathered words stay within ``_BUDGET``.  The result is unpacked once and
``C`` is OR-ed in last.  Or-and is exact, so no fold order can change a
bit; on a 1024³ launch with C the packed pass takes 3.8–35 ms from
density 0.004 to 0.93, against 121–124 ms for the ``bool`` streaming loop
(2-CPU x86 VM, NumPy 2.4).

Fast paths for GEMM (``A @ B``) and squared-L2 distance (the norm-expansion
trick) are provided separately; they may differ from the generic path in the
last float ulp because summation order differs, exactly as library GEMMs do.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import numpy as np

from repro.core.precision import quantize_input, quantize_output
from repro.core.semiring import Semiring, SemiringError
from repro.core.registry import get_semiring

__all__ = [
    "mmo",
    "mmo_reference",
    "gemm",
    "squared_l2_distance",
    "or_and_words",
    "pack_rows",
    "unpack_rows",
]

#: Element budget of the kernel's temporaries: the ``(rows, n)`` accumulator
#: and one chunk of products, or the packed B rows one block of or-and
#: gathers.  With 2**17 fp32 elements, a large launch's accumulator and
#: one-step chunk (1 MB together) fit a 2 MB L2.
_BUDGET = 2**17

#: Bits per packed word of the or-and path.
_WORD = 64

#: Output rows at least ``_UNBUFFERED_WIDTH`` wide run the arithmetic rings'
#: rank-1 updates under a ufunc buffer of ``_ROW_BUFFER`` elements, no longer
#: than one row, in place of NumPy's default (see the module docstring).
_UNBUFFERED_WIDTH = 256
_ROW_BUFFER = 256


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
    same answer.
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


def or_and_words(a: np.ndarray, b_words: np.ndarray) -> np.ndarray:
    """The or-and product of a ``bool`` A and row-packed B, packed the same way.

    Row ``i`` of the result ORs the rows of ``b_words`` (:func:`pack_rows`)
    at the set bits of row ``i`` of A, with ``np.bitwise_or.reduceat``.
    A block of A rows gathers at most ``_BUDGET`` words; a row whose set
    bits alone gather more is ORed in pieces.  A row without set bits
    stays clear, the ⊕ identity.
    """
    out = np.zeros((a.shape[0], b_words.shape[1]), dtype=b_words.dtype)
    if not out.size:
        return out
    per_block = max(1, _BUDGET // b_words.shape[1])  # set bits, one word row each
    counts = a.sum(axis=1)
    ends = np.cumsum(counts)
    firsts = ends - counts  # where each row's set bits start, in row order
    start = 0
    while start < len(out):
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + per_block, "right")))
        ks = np.nonzero(a[start:stop])[1]
        if len(ks) > per_block:  # one row
            for lo in range(0, len(ks), per_block):
                out[start] |= np.bitwise_or.reduce(b_words[ks[lo : lo + per_block]])
        elif len(ks):
            hit = start + np.flatnonzero(counts[start:stop])
            heads = firsts[hit] - firsts[start]
            out[hit] = np.bitwise_or.reduceat(b_words[ks], heads, axis=0)
        start = stop
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

    # (k, m): row kk is column kk of A, contiguous for the rank-1 steps.
    a_cols = np.ascontiguousarray(quantize_input(a, ring).astype(ring.output_dtype).T)
    b_rows = quantize_input(b, ring).astype(ring.output_dtype)
    out = np.empty((m, n), dtype=ring.output_dtype)
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


def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """Mixed-precision GEMM fast path (``plus-mul`` via ``@``)."""
    ring = get_semiring("plus-mul")
    a32 = quantize_input(np.asarray(a), ring).astype(np.float32)
    b32 = quantize_input(np.asarray(b), ring).astype(np.float32)
    _validate_shapes(a32, b32, None if c is None else np.asarray(c))
    out = a32 @ b32
    if c is not None:
        out = out + np.asarray(c, dtype=np.float32)
    return out.astype(np.float32)


def squared_l2_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared-L2 distances via the norm-expansion trick.

    ``D[i, j] = Σ_k (A[i, k] - B[k, j])² = ‖A_i‖² + ‖B_j‖² − 2·(A@B)[i, j]``

    This is the optimised formulation library baselines (and the paper's
    KNN-CUDA baseline) use; it matches ``mmo("plus-norm", ...)`` up to fp32
    rounding.  ``b`` is laid out like the mmo operand: shape ``(k, n)`` with
    one point per *column*.
    """
    ring = get_semiring("plus-norm")
    a32 = quantize_input(np.asarray(a), ring).astype(np.float32)
    b32 = quantize_input(np.asarray(b), ring).astype(np.float32)
    _validate_shapes(a32, b32, None)
    row_norms = np.sum(a32 * a32, axis=1, keepdims=True)  # (m, 1)
    col_norms = np.sum(b32 * b32, axis=0, keepdims=True)  # (1, n)
    cross = a32 @ b32
    out = row_norms + col_norms - 2.0 * cross
    # Clamp tiny negative values produced by cancellation.
    np.maximum(out, 0.0, out=out)
    return out.astype(np.float32)
