"""Hot-path wall-clock tracking: semiring kernel, emulator MMO and spGEMM.

Standalone script (not a pytest benchmark): times the seed's scalar
decompositions — kept in-tree as ``Simd2Device(batched_mmo=False)`` and
``spgemm_reference`` — against the vectorized paths that replaced them on
the hot loops, asserts the results are bit-identical, and writes a JSON
artifact so the perf trajectory is tracked from PR to PR.

The whole-matrix kernel ``repro.core.ops.mmo`` is timed the same way
against a frozen copy of the row-blocked broadcast-and-reduce kernel it
replaced (:func:`_broadcast_reduce_mmo`), and gated: the streaming kernel
must be at least ``KERNEL_MIN_SPEEDUP`` times faster on a min-plus launch
(512² in smoke mode, 2048² with ``--full``) and give the same bits.  KNN's
top-k selection ``repro.apps.knn.select_k_smallest`` is gated the same way
on the points of ``TOPK_GATES``, with equal bits, against frozen copies of
the two selections it replaced: the stable argsort
(:func:`_argsort_select`) on a tie-heavy 1024² matrix and, with
``--full``, a 4096² ``knn_wide``-shaped distance matrix; and the per-row
partition (:func:`_partition_select`) on ``knn_wide``-shaped distances
and on the group bound's worst rows: constant, half NaN, the smallest
entries in one column residue class, and numbers in fewer than k column
groups (the partition fallback).  The kernel's per-ring loop is gated
against a frozen copy of the streaming kernel on NumPy's default buffer
(:func:`_default_buffer_mmo`) on the launches of ``RING_BUFFER_GATES``:
the row-sized ufunc buffer of min-plus and plus-norm, and or-and's packed
pass.  Each case needs equal bits and at least its speedup.  Or-and's byte
tables are gated the same way against a frozen copy of the packed pass
they replaced, which gathers one B row per set bit
(:func:`_set_bit_or_and_mmo`), on the launches of ``OR_AND_GATES``: at
least 2x on dense 768³ launches and 1.5x on a dense rank-64 update, and
no loss beyond 0.9x where a table cannot pay.  Grid-valued
plus-norm and plus-mul launches pass the exactness certificate and run as
one sgemm: ``CERTIFIED_GATES`` times them against the frozen streaming
kernel under the row-sized buffer (:func:`_row_buffer_mmo`), with equal
bits, and ``CERTIFICATE_COST_GATES`` bounds the certificate's own cost,
paid by continuous launches that fail it, at ``CERTIFICATE_MAX_SHARE`` of
the streaming kernel's time.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # smoke
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --full \
        --out benchmarks/results/hotpaths.json                    # artifact

Smoke mode runs small sizes in a few seconds (wired to ``make bench-smoke``
and CI); ``--full`` adds the acceptance-criteria points: 512² emulate
(scalar vs batched, the ≥10× target), 1024² emulate, a 4096² Figure-14
sparse point, the 2048² kernel gate, and the top-k gates at 4096² on
``knn_wide`` distances and 2048² on the worst-case rows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# One BLAS thread, as perfbench pins it, set before NumPy loads its BLAS:
# every other loop timed here is single-threaded, and a two-thread sgemm
# waits on the other CPU whenever it is busy (a 768×66×768 one read
# 12-20 ms against 0.7 ms on a shared 2-CPU VM).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from repro.apps.knn import select_k_smallest
from repro.core import get_semiring
from repro.core import ops as core_ops
from repro.core.precision import quantize_input
from repro.datasets import PointCloudSpec, uniform_points
from repro.hw.device import Simd2Device
from repro.runtime.kernels import mmo_tiled
from repro.sparse import CsrMatrix, spgemm, spgemm_reference

from interleaved import interleaved_mins


#: The streaming kernel must beat the broadcast-and-reduce baseline by this.
KERNEL_MIN_SPEEDUP = 1.8

#: ``(baseline, inputs, smoke n, --full n, minimum speedup)`` of
#: ``select_k_smallest`` over a frozen selection on an n² matrix (no smoke
#: point where smoke n is ``None``).  ``knn_wide`` is that workload's
#: plus-norm distances; ``tie_heavy`` rows hold 64 distinct values; the
#: last four are the group bound's worst rows, where it must merely not
#: lose to the partition.  On ``nan_groups`` rows every group bound is NaN,
#: so each row takes the partition fallback; without it they would sort
#: whole rows (0.2-0.3x).
TOPK_GATES = (
    ("argsort", "tie_heavy", 1024, 1024, 3.0),
    ("argsort", "knn_wide", None, 4096, 3.0),
    ("partition", "knn_wide", 1024, 4096, 1.5),
    ("partition", "all_equal", 1024, 2048, 1.0),
    ("partition", "half_nan", 1024, 2048, 1.0),
    ("partition", "residue_class", 1024, 2048, 1.0),
    ("partition", "nan_groups", 1024, 2048, 1.0),
)

#: Neighbours per query in the top-k gates, as in the ``knn_wide`` workload.
TOPK_K = 16

#: ``(ring, with C, minimum speedup, (m, k, n), operands)`` of
#: ``repro.core.ops.mmo`` over :func:`_default_buffer_mmo`.  Min-plus with C
#: is ``apsp_dense``'s rank-64 update.  Or-and runs on packed words, so its
#: two cases time that pass against the frozen ``bool`` streaming loop: a
#: 0.1-dense rank-64 launch, and a 0.93-dense 768³ one (GTC's last
#: squarings are that dense).  ``operands`` is the share of true entries of
#: the boolean operands, and ``"ints"`` or ``"uniform"`` (integer or
#: continuous weights) for the numeric rings, whose operands hold a
#: sentinel in half their entries.  Integer plus-norm operands pass the
#: exactness certificate, so that row times the sgemm; the continuous one
#: keeps the row-sized buffer gated.
RING_BUFFER_GATES = (
    ("min-plus", True, 1.5, (768, 64, 768), "ints"),
    ("plus-norm", False, 1.3, (768, 64, 768), "ints"),
    ("plus-norm", False, 1.3, (768, 64, 768), "uniform"),
    ("or-and", True, 3.0, (768, 64, 768), 0.1),
    ("or-and", True, 2.0, (768, 768, 768), 0.93),
)

#: ``(minimum speedup, (m, k, n), density)`` of ``repro.core.ops.mmo`` over
#: :func:`_set_bit_or_and_mmo` on or-and launches with C, every operand true
#: at ``density``.  The dense launches gate the byte tables; the last three
#: gate that no table is built where it cannot pay (a sparse 768³ launch,
#: a 64-row panel and a small dense launch).
OR_AND_GATES = (
    (2.0, (768, 768, 768), 0.44),
    (2.0, (768, 768, 768), 0.93),
    (1.5, (768, 64, 768), 0.44),
    (0.9, (768, 768, 768), 0.004),
    (0.9, (64, 64, 768), 0.44),
    (0.9, (48, 48, 48), 0.93),
)

#: ``(ring, with C, minimum speedup, (m, k, n))`` of ``repro.core.ops.mmo``
#: over :func:`_row_buffer_mmo` on operands that pass the certificate:
#: ``knn_wide``'s 1/16-grid points, and small integers.
CERTIFIED_GATES = (
    ("plus-norm", False, 4.0, (1024, 48, 1024)),
    ("plus-mul", True, 4.0, (768, 64, 768)),
)

#: ``(ring, (m, k, n))`` of continuous launches, which fail the certificate
#: and stream: the check may cost at most ``CERTIFICATE_MAX_SHARE`` of them.
CERTIFICATE_COST_GATES = (
    ("plus-norm", (768, 64, 768)),
    ("plus-mul", (768, 64, 768)),
    ("plus-norm", (256, 256, 256)),
    ("plus-mul", (256, 256, 256)),
)
CERTIFICATE_MAX_SHARE = 0.05


def _broadcast_reduce_mmo(ring, a, b):
    """The row-blocked kernel ``repro.core.ops.mmo`` replaced, frozen here.

    Per block of 64 output rows it builds the whole ``(64, k, n)`` ⊗
    temporary and ⊕-reduces it along ``k``.
    """
    ring = get_semiring(ring)
    a16 = quantize_input(np.asarray(a), ring).astype(ring.output_dtype)
    b16 = quantize_input(np.asarray(b), ring).astype(ring.output_dtype)
    out = ring.full((a16.shape[0], b16.shape[1]))
    for start in range(0, len(a16), 64):
        block = a16[start : start + 64]
        with np.errstate(invalid="ignore"):
            products = ring.otimes(block[:, :, None], b16[None, :, :])
        reduced = ring.reduce(products, axis=1)
        out[start : start + 64] = ring.combine(out[start : start + 64], reduced)
    return out


def bench_kernel(records: list[dict], n: int, *, repeats: int) -> float:
    """Streaming kernel vs the frozen baseline on an n² min-plus launch.

    Min-of-``repeats``, the two kernels alternating so host drift hits
    both alike.  Returns the speedup; exits on a bit mismatch.
    """
    rng = np.random.default_rng(5)
    # Continuous weights with "no edge" entries, as an APSP launch sees.
    a = rng.uniform(0.5, 8.5, (n, n))
    b = rng.uniform(0.5, 8.5, (n, n))
    a[rng.random((n, n)) < 0.5] = np.inf
    b[rng.random((n, n)) < 0.5] = np.inf
    timings = {"broadcast": float("inf"), "streaming": float("inf")}
    results = {}
    for _ in range(repeats):
        for mode, kernel in (
            ("broadcast", _broadcast_reduce_mmo),
            ("streaming", core_ops.mmo),
        ):
            t0 = time.perf_counter()
            results[mode] = kernel("min-plus", a, b)
            timings[mode] = min(timings[mode], time.perf_counter() - t0)
    if not np.array_equal(results["streaming"], results["broadcast"]):
        raise SystemExit(f"kernel {n}²: streaming result != broadcast result")
    for mode, seconds in timings.items():
        records.append({"case": "kernel_mmo", "n": n, "mode": mode, "seconds": seconds})
    speedup = timings["broadcast"] / timings["streaming"]
    print(f"kernel  {n:5d}² min-plus  broadcast {timings['broadcast']:8.3f}s  "
          f"streaming {timings['streaming']:8.3f}s  "
          f"(speedup {speedup:4.2f}x, need >= {KERNEL_MIN_SPEEDUP}x, bit-identical)")
    if speedup < KERNEL_MIN_SPEEDUP:
        raise SystemExit(
            f"kernel {n}²: streaming kernel {speedup:.2f}x faster than the "
            f"broadcast baseline, below the {KERNEL_MIN_SPEEDUP}x gate"
        )
    return speedup


def _default_buffer_mmo(ring, a, b, c=None):
    """The streaming kernel of ``repro.core.ops.mmo`` on NumPy's default
    ufunc buffer, frozen here, for rings whose ⊕ is a ufunc.

    Same blocking and fold order; every rank-1 update runs under the
    caller's buffer, and C is copied into the output before the loop.
    """
    ring = get_semiring(ring)
    a_cols = np.ascontiguousarray(quantize_input(a, ring).astype(ring.output_dtype).T)
    b_rows = quantize_input(b, ring).astype(ring.output_dtype)
    (k, m), n = a_cols.shape, b_rows.shape[1]
    out = ring.full((m, n)) if c is None else np.asarray(c).astype(ring.output_dtype)
    rows = max(1, min(m, 2**17 // n))
    steps = max(1, 2**17 // (rows * n))
    with np.errstate(invalid="ignore"):
        for start in range(0, m, rows):
            cols = a_cols[:, start : start + rows]
            acc = ring.reduce(
                ring.otimes(cols[:steps, :, None], b_rows[:steps, None, :]), axis=0
            )
            chunk = np.empty((steps, *acc.shape), dtype=ring.output_dtype)
            for kk in range(steps, k, steps):
                a_k = cols[kk : kk + steps, :, None]
                b_k = b_rows[kk : kk + steps, None, :]
                for product in ring.otimes(a_k, b_k, out=chunk[: len(a_k)]):
                    ring.oplus(acc, product, out=acc)
            out[start : start + rows] = ring.combine(out[start : start + rows], acc)
    return out


def _row_buffer_mmo(ring, a, b, c=None):
    """The streaming kernel under its 256-element row buffer, frozen here:
    what ``repro.core.ops.mmo`` ran on every plus-norm and plus-mul launch
    at least 256 wide before the certificate."""
    caller = np.setbufsize(256)
    try:
        return _default_buffer_mmo(ring, a, b, c)
    finally:
        np.setbufsize(caller)


def _certified_inputs(ring, with_c, shape):
    """``knn_wide``-style points on the 1/16 grid in [-8, 8] for plus-norm,
    integers in [-8, 8] for plus-mul; a continuous C, which the certificate
    does not read."""
    m, k, n = shape
    rng = np.random.default_rng(14)
    if ring == "plus-norm":
        a = uniform_points(PointCloudSpec(m, k, seed=21))
        b = uniform_points(PointCloudSpec(n, k, seed=22)).T
    else:
        a, b = (rng.integers(-8, 9, size).astype(np.float32) for size in ((m, k), (k, n)))
    c = rng.uniform(-64, 64, (m, n)).astype(np.float32) if with_c else None
    return a, b, c


def bench_certified(*, repeats: int) -> list[dict]:
    """``core.ops.mmo`` vs :func:`_row_buffer_mmo` per ``CERTIFIED_GATES``.

    Min-of-``repeats``, interleaved.  Returns the gate entries; exits on a
    bit mismatch or a speedup below a case's bound.
    """
    gates = []
    for name, with_c, bound, shape in CERTIFIED_GATES:
        a, b, c = _certified_inputs(name, with_c, shape)
        frozen, kernel = _row_buffer_mmo(name, a, b, c), core_ops.mmo(name, a, b, c)
        if not np.array_equal(frozen.view(np.uint32), kernel.view(np.uint32)):
            raise SystemExit(f"certified {name}: mmo result != streaming result")
        frozen_s, kernel_s = interleaved_mins(
            lambda: _row_buffer_mmo(name, a, b, c),
            lambda: core_ops.mmo(name, a, b, c),
            repeats,
        )
        speedup = frozen_s / kernel_s
        label = f"{name}{' with C' if with_c else ''}"
        print(f"exact   {'×'.join(map(str, shape)):11s} {label:24s} "
              f"stream  {frozen_s * 1e3:7.2f}ms  "
              f"mmo {kernel_s * 1e3:7.2f}ms  (speedup {speedup:4.2f}x, "
              f"need >= {bound}x, bit-identical)")
        if speedup < bound:
            raise SystemExit(
                f"certified {label}: mmo {speedup:.2f}x faster than the "
                f"streaming kernel, below the {bound}x gate"
            )
        gates.append({
            "ring": name, "shape": list(shape), "with_c": with_c,
            "streaming_s": frozen_s, "mmo_s": kernel_s,
            "speedup": round(speedup, 2), "min_speedup": bound,
        })
    return gates


def bench_certificate_cost(*, repeats: int) -> list[dict]:
    """The certificate's time over ``core.ops.mmo``'s on continuous launches
    (``CERTIFICATE_COST_GATES``), which fail it and stream.

    Min-of-``repeats``, interleaved.  Returns the gate entries; exits if a
    launch certifies or the share exceeds ``CERTIFICATE_MAX_SHARE``.
    """
    gates = []
    rng = np.random.default_rng(15)
    for name, shape in CERTIFICATE_COST_GATES:
        m, k, n = shape
        ring = get_semiring(name)
        a, b = rng.uniform(-8, 8, (m, k)), rng.uniform(-8, 8, (k, n))
        a32 = quantize_input(a, ring).astype(np.float32)
        b32 = quantize_input(b, ring).astype(np.float32)
        if core_ops._certified(ring, a32, b32):
            raise SystemExit(f"certificate {name}: continuous operands certified")
        check_s, kernel_s = interleaved_mins(
            lambda: core_ops._certified(ring, a32, b32),
            lambda: core_ops.mmo(ring, a, b),
            repeats,
        )
        share = check_s / kernel_s
        print(f"check   {'×'.join(map(str, shape)):11s} {name + ' uniform':24s} "
              f"cert    {check_s * 1e3:7.3f}ms  "
              f"mmo {kernel_s * 1e3:7.2f}ms  (share {share:6.2%}, "
              f"need <= {CERTIFICATE_MAX_SHARE:.0%})")
        if share > CERTIFICATE_MAX_SHARE:
            raise SystemExit(
                f"certificate {name} {shape}: {share:.2%} of the streaming "
                f"kernel, above the {CERTIFICATE_MAX_SHARE:.0%} gate"
            )
        gates.append({
            "ring": name, "shape": list(shape), "certificate_s": check_s,
            "mmo_s": kernel_s, "share": round(share, 4),
            "max_share": CERTIFICATE_MAX_SHARE,
        })
    return gates


def _ring_buffer_inputs(ring, with_c, shape, operands):
    """Integer weights in [0, 8] (``"ints"``) or continuous ones in [0, 8)
    (``"uniform"``), with ±inf "no edge" entries on the min/max rings and
    zeros on plus-norm; fp32 C.  Boolean operands are true at the density
    ``operands``."""
    m, k, n = shape
    rng = np.random.default_rng(13)
    ring = get_semiring(ring)
    sizes = ((m, k), (k, n), (m, n))
    if ring.is_boolean():
        a, b, c = (rng.random(size) < operands for size in sizes)
    else:
        if operands == "uniform":
            a, b, c = (rng.uniform(0, 8, size).astype(np.float32) for size in sizes)
        else:
            a, b, c = (rng.integers(0, 9, size).astype(np.float32) for size in sizes)
        sentinel = ring.oplus_identity if np.isinf(ring.oplus_identity) else 0.0
        a[rng.random((m, k)) < 0.5] = sentinel
        b[rng.random((k, n)) < 0.5] = sentinel
    return a, b, (c if with_c else None)


def bench_ring_buffers(*, repeats: int) -> list[dict]:
    """``core.ops.mmo`` vs :func:`_default_buffer_mmo` per ``RING_BUFFER_GATES``.

    Min-of-``repeats``, interleaved.  Returns the gate entries; exits on a
    bit mismatch or a speedup below a case's bound.
    """
    gates = []
    for name, with_c, bound, shape, operands in RING_BUFFER_GATES:
        a, b, c = _ring_buffer_inputs(name, with_c, shape, operands)
        frozen, kernel = _default_buffer_mmo(name, a, b, c), core_ops.mmo(name, a, b, c)
        if not np.array_equal(frozen.view(np.uint8), kernel.view(np.uint8)):
            raise SystemExit(f"ring buffer {name}: mmo result != default-buffer result")
        frozen_s, kernel_s = interleaved_mins(
            lambda: _default_buffer_mmo(name, a, b, c),
            lambda: core_ops.mmo(name, a, b, c),
            repeats,
        )
        speedup = frozen_s / kernel_s
        label = f"{name}{' with C' if with_c else ''}"
        label += f" d={operands}" if isinstance(operands, float) else f" {operands}"
        print(f"buffer  {'×'.join(map(str, shape)):11s} {label:24s} "
              f"default {frozen_s * 1e3:7.2f}ms  "
              f"mmo {kernel_s * 1e3:7.2f}ms  (speedup {speedup:4.2f}x, "
              f"need >= {bound}x, bit-identical)")
        if speedup < bound:
            raise SystemExit(
                f"ring buffer {label}: mmo {speedup:.2f}x faster than the "
                f"default-buffer kernel, below the {bound}x gate"
            )
        gates.append({
            "ring": name, "shape": list(shape), "operands": operands, "with_c": with_c,
            "default_buffer_s": frozen_s, "mmo_s": kernel_s,
            "speedup": round(speedup, 2), "min_speedup": bound,
        })
    return gates


def _set_bit_words(a, b_words):
    """The packed or-and pass before byte tables, frozen here: row ``i``
    ORs the packed B rows at the set bits of row ``i`` of A, per block of
    rows whose gathered words stay within 2**17."""
    out = np.zeros((a.shape[0], b_words.shape[1]), dtype=b_words.dtype)
    if not out.size:
        return out
    per_block = max(1, 2**17 // b_words.shape[1])
    counts = a.sum(axis=1)
    ends = np.cumsum(counts)
    firsts = ends - counts
    start = 0
    while start < len(out):
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + per_block, "right")))
        ks = np.nonzero(a[start:stop])[1]
        if len(ks) > per_block:
            for lo in range(0, len(ks), per_block):
                out[start] |= np.bitwise_or.reduce(b_words[ks[lo : lo + per_block]])
        elif len(ks):
            hit = start + np.flatnonzero(counts[start:stop])
            heads = firsts[hit] - firsts[start]
            out[hit] = np.bitwise_or.reduceat(b_words[ks], heads, axis=0)
        start = stop
    return out


def _set_bit_or_and_mmo(a, b, c):
    """``repro.core.ops.mmo``'s or-and branch before byte tables, frozen
    here: pack B, run :func:`_set_bit_words`, unpack and OR C in."""
    ring = get_semiring("or-and")
    a_bits = quantize_input(a, ring).astype(bool, copy=False)
    b_bits = quantize_input(b, ring).astype(bool, copy=False)
    out = core_ops.unpack_rows(_set_bit_words(a_bits, core_ops.pack_rows(b_bits)), b.shape[1])
    np.logical_or(np.asarray(c, dtype=bool), out, out=out)
    return out


def bench_or_and(*, repeats: int) -> list[dict]:
    """``core.ops.mmo`` vs :func:`_set_bit_or_and_mmo` per ``OR_AND_GATES``.

    Min-of-``repeats``, interleaved.  Returns the gate entries; exits on a
    bit mismatch or a speedup below a case's bound.
    """
    gates = []
    for bound, shape, density in OR_AND_GATES:
        a, b, c = _ring_buffer_inputs("or-and", True, shape, density)
        if not np.array_equal(_set_bit_or_and_mmo(a, b, c), core_ops.mmo("or-and", a, b, c)):
            raise SystemExit(f"or-and {shape} d={density}: mmo result != set-bit result")
        frozen_s, kernel_s = interleaved_mins(
            lambda: _set_bit_or_and_mmo(a, b, c),
            lambda: core_ops.mmo("or-and", a, b, c),
            repeats,
        )
        speedup = frozen_s / kernel_s
        label = f"or-and with C d={density}"
        print(f"or-and  {'×'.join(map(str, shape)):11s} {label:24s} "
              f"set-bit {frozen_s * 1e3:7.2f}ms  "
              f"mmo {kernel_s * 1e3:7.2f}ms  (speedup {speedup:4.2f}x, "
              f"need >= {bound}x, bit-identical)")
        if speedup < bound:
            raise SystemExit(
                f"or-and {shape} d={density}: mmo {speedup:.2f}x faster than the "
                f"set-bit pass, below the {bound}x gate"
            )
        gates.append({
            "shape": list(shape), "density": density, "with_c": True,
            "set_bit_s": frozen_s, "mmo_s": kernel_s,
            "speedup": round(speedup, 2), "min_speedup": bound,
        })
    return gates


def _argsort_select(distances, k):
    """The first selection ``select_k_smallest`` replaced, frozen here: one
    stable argsort of every whole row, cut to its first ``k`` columns."""
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    values = np.take_along_axis(distances, order, axis=1)
    return order, values


def _partition_select(distances, k):
    """The selection the group-minimum bound replaced, frozen here: per
    256-row block, partition every row to its k-th value, keep the entries
    at most that value with a 2-D ``np.nonzero``, and stable-sort those."""
    rows, cols = distances.shape
    indices = np.empty((rows, k), dtype=np.intp)
    values = np.empty((rows, k), dtype=distances.dtype)
    first_k = np.arange(k)
    for start in range(0, rows, 256):
        block = distances[start : start + 256]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
        keep = (block <= kth) | np.isnan(kth)
        row, col = np.nonzero(keep)
        kept = block[row, col]
        order = np.lexsort((kept, row))
        counts = np.count_nonzero(keep, axis=1)
        pick = order[(np.cumsum(counts) - counts)[:, None] + first_k]
        indices[start : start + len(block)] = col[pick]
        values[start : start + len(block)] = kept[pick]
    return indices, values


TOPK_BASELINES = {"argsort": _argsort_select, "partition": _partition_select}


def _topk_inputs(n: int, shape: str) -> np.ndarray:
    rng = np.random.default_rng(9)
    if shape == "tie_heavy":
        # 64 distinct values per row of n: nearly every row's k-th value
        # ties with entries past it, so the selection keeps extra entries.
        return rng.integers(0, 64, (n, n)).astype(np.float32)
    if shape == "all_equal":
        return np.ones((n, n), np.float32)  # every entry is a candidate
    if shape == "half_nan":
        # A NaN-propagating group minimum would be NaN in every group.
        distances = rng.random((n, n)).astype(np.float32)
        distances[rng.random((n, n)) < 0.5] = np.nan
        return distances
    if shape == "residue_class":
        # Every 128th column holds a row's smallest entries, all in one
        # group, so the other groups' minima bound it loosely.
        distances = rng.random((n, n)).astype(np.float32) + 1.0
        distances[:, ::128] -= 1.0
        return distances
    if shape == "nan_groups":
        # Numbers in two columns of every 128, so in 2 < k groups.
        distances = np.full((n, n), np.nan, np.float32)
        distances[:, 3::128] = rng.random((n, n // 128))
        distances[:, 70::128] = rng.random((n, n // 128))
        return distances
    # knn_wide: plus-norm distances between two uniform 40-d point sets.
    queries = uniform_points(PointCloudSpec(n, 40, seed=21))
    references = uniform_points(PointCloudSpec(n, 40, seed=22))
    return core_ops.mmo("plus-norm", queries, references.T)


def bench_topk(
    records: list[dict], baseline: str, shape: str, n: int, bound: float,
    *, repeats: int,
) -> dict:
    """``select_k_smallest`` vs a frozen selection on an n² matrix.

    Min-of-``repeats``, interleaved.  Returns the gate's row; exits on a
    bit mismatch or a speedup below ``bound``.
    """
    distances = _topk_inputs(n, shape)
    frozen = TOPK_BASELINES[baseline]
    got = select_k_smallest(distances, TOPK_K)
    want = frozen(distances, TOPK_K)
    if not (
        np.array_equal(got[0], want[0])
        and np.array_equal(got[1].view(np.uint8), want[1].view(np.uint8))
    ):
        raise SystemExit(f"top-k {n}² {shape}: result != the {baseline} result")
    frozen_s, select_s = interleaved_mins(
        lambda: frozen(distances, TOPK_K),
        lambda: select_k_smallest(distances, TOPK_K),
        repeats,
    )
    for mode, seconds in ((baseline, frozen_s), ("select_k_smallest", select_s)):
        records.append(
            {"case": "topk", "n": n, "inputs": shape, "mode": mode, "seconds": seconds}
        )
    speedup = frozen_s / select_s
    print(f"top-k   {n:5d}² {shape:13s} {baseline:9s} {frozen_s:8.3f}s  "
          f"select {select_s:8.3f}s  "
          f"(speedup {speedup:5.2f}x, need >= {bound}x, bit-identical)")
    if speedup < bound:
        raise SystemExit(
            f"top-k {n}² {shape}: select_k_smallest {speedup:.2f}x faster "
            f"than the {baseline} selection, below the {bound}x gate"
        )
    return {
        "baseline": baseline, "n": n, "inputs": shape, "k": TOPK_K,
        "speedup": round(speedup, 2), "min_speedup": bound,
    }


def _emulate_case(n: int, *, batched: bool, seed: int = 0):
    # Continuous floats, not integers: integer-valued operands sum exactly
    # and would let accumulation-order divergences pass the parity assert.
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) * 8 + 0.5
    b = rng.random((n, n)) * 8 + 0.5
    device = Simd2Device(sm_count=4, batched_mmo=batched)
    t0 = time.perf_counter()
    result, stats = mmo_tiled("plus-mul", a, b, backend="emulate", device=device)
    seconds = time.perf_counter() - t0
    return result, stats, seconds


def _spgemm_inputs(n: int, density: float, seed: int = 11):
    rng = np.random.default_rng(seed)
    dense = np.where(
        rng.random((n, n)) < density, rng.random((n, n)) * 8 + 0.5, 0.0
    )
    return CsrMatrix.from_dense(dense)


def bench_emulate(records: list[dict], n: int, *, compare_scalar: bool) -> None:
    result, stats, seconds = _emulate_case(n, batched=True)
    records.append(
        {"case": "emulate_mmo", "n": n, "mode": "batched", "seconds": seconds}
    )
    print(f"emulate {n:5d}²  batched  {seconds:8.3f}s  "
          f"(unit_ops={stats.execution.unit_ops})")
    if compare_scalar:
        ref, ref_stats, ref_seconds = _emulate_case(n, batched=False)
        if not np.array_equal(result, ref):
            raise SystemExit(f"emulate {n}²: batched result != scalar result")
        if stats.execution.unit_ops != ref_stats.execution.unit_ops:
            raise SystemExit(f"emulate {n}²: batched unit_ops != scalar unit_ops")
        records.append(
            {"case": "emulate_mmo", "n": n, "mode": "scalar", "seconds": ref_seconds}
        )
        print(f"emulate {n:5d}²  scalar   {ref_seconds:8.3f}s  "
              f"(speedup {ref_seconds / seconds:5.1f}x, bit-identical)")


def bench_spgemm(
    records: list[dict], n: int, density: float, *, compare_reference: bool
) -> None:
    csr = _spgemm_inputs(n, density)
    t0 = time.perf_counter()
    result, stats = spgemm("plus-mul", csr, csr)
    seconds = time.perf_counter() - t0
    records.append(
        {
            "case": "spgemm", "n": n, "density": density, "mode": "vectorized",
            "seconds": seconds, "products": stats.products,
        }
    )
    print(f"spgemm  {n:5d}² d={density:.2f} vectorized {seconds:8.3f}s  "
          f"(products={stats.products})")
    if compare_reference:
        t0 = time.perf_counter()
        ref, ref_stats = spgemm_reference("plus-mul", csr, csr)
        ref_seconds = time.perf_counter() - t0
        same = (
            np.array_equal(result.indptr, ref.indptr)
            and np.array_equal(result.indices, ref.indices)
            and np.array_equal(result.data, ref.data)
            and stats.products == ref_stats.products
        )
        if not same:
            raise SystemExit(f"spgemm {n}²: vectorized result != reference")
        records.append(
            {
                "case": "spgemm", "n": n, "density": density, "mode": "scalar",
                "seconds": ref_seconds, "products": ref_stats.products,
            }
        )
        print(f"spgemm  {n:5d}² d={density:.2f} scalar     {ref_seconds:8.3f}s  "
              f"(speedup {ref_seconds / seconds:5.1f}x, bit-identical)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="add the paper-scale points (512²/1024² emulate, 4096² spGEMM)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    args = parser.parse_args(argv)

    records: list[dict] = []
    kernel_n = 2048 if args.full else 512
    kernel_speedup = bench_kernel(records, kernel_n, repeats=2 if args.full else 3)
    ring_buffer_gates = bench_ring_buffers(repeats=15 if args.full else 7)
    certified_gates = bench_certified(repeats=15 if args.full else 7)
    certificate_cost_gates = bench_certificate_cost(repeats=15 if args.full else 7)
    topk_gates = [
        bench_topk(records, baseline, shape, n, bound, repeats=5)
        for baseline, shape, smoke_n, full_n, bound in TOPK_GATES
        if (n := full_n if args.full else smoke_n) is not None
    ]
    # After the top-k gates: run before them, these launches leave the heap
    # in a state that read the all_equal selection 0.99-1.02x, not 1.13x.
    or_and_gates = bench_or_and(repeats=15 if args.full else 7)
    bench_emulate(records, 128, compare_scalar=True)
    bench_spgemm(records, 512, 0.05, compare_reference=True)
    if args.full:
        bench_emulate(records, 256, compare_scalar=True)
        bench_emulate(records, 512, compare_scalar=True)
        bench_emulate(records, 1024, compare_scalar=False)
        bench_spgemm(records, 1024, 0.05, compare_reference=True)
        # The Figure-14 sparse-crossover point: 4096² at 99 % sparsity.
        bench_spgemm(records, 4096, 0.01, compare_reference=False)

    by_key = {
        (r["case"], r["n"], r.get("density"), r["mode"]): r["seconds"]
        for r in records
    }
    speedups = {}
    for (case, n, density, mode), seconds in by_key.items():
        if mode != "scalar":
            continue
        fast = by_key.get((case, n, density, "vectorized" if case == "spgemm" else "batched"))
        if fast:
            label = f"{case}_{n}" + (f"_d{density:.2f}" if density else "")
            speedups[label] = round(seconds / fast, 2)

    artifact = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mode": "full" if args.full else "smoke",
        "records": records,
        "speedups_vs_scalar": speedups,
        "kernel_gate": {
            "n": kernel_n,
            "speedup": round(kernel_speedup, 2),
            "min_speedup": KERNEL_MIN_SPEEDUP,
        },
        "topk_gates": topk_gates,
        "ring_buffer_gates": ring_buffer_gates,
        "or_and_gates": or_and_gates,
        "certified_gates": certified_gates,
        "certificate_cost_gates": certificate_cost_gates,
    }
    payload = json.dumps(artifact, indent=2)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
