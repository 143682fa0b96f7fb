"""Semiring-like algebraic structures at the heart of SIMD².

The paper (Section 2.1) observes that a large family of matrix algorithms
can be written as ``D = C ⊕ (A ⊗ B)`` where ``⊕`` behaves like addition and
``⊗`` behaves like multiplication.  This module defines the :class:`Semiring`
abstraction used throughout the library: a pair of binary operators together
with the ``⊕`` identity (the value that pads tiles without changing results)
and the data-type rules of the SIMD² datapath (fp16 inputs, fp32 outputs for
numeric rings; booleans for the logical ring).

The nine concrete instances the SIMD² ISA supports live in
:mod:`repro.core.registry`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

__all__ = ["Semiring", "SemiringError"]


class SemiringError(ValueError):
    """Raised when a semiring is constructed or used inconsistently."""


@dataclasses.dataclass(frozen=True)
class Semiring:
    """A semiring-like structure ``(⊕, ⊗)`` over matrix elements.

    Parameters
    ----------
    name:
        Human-readable name, e.g. ``"min-plus"``.  Also the registry key.
    oplus:
        Element-wise "additive" combine, broadcastable over ndarrays.
        Used both to fold the pairwise products along ``k`` and to merge
        the accumulator matrix ``C`` into the result.
    otimes:
        Element-wise "multiplicative" pair operation, broadcastable over
        ndarrays.  For ``plus-norm`` this is the squared difference
        ``(a - b)**2`` — not associative, which is why the paper calls the
        structure semiring-*like*.  When ``oplus`` is a NumPy ufunc,
        ``otimes`` must also take an ``out=`` buffer, as ufuncs do: the
        streaming kernel of :func:`repro.core.ops.mmo` folds in place.
    oplus_identity:
        Identity of ``⊕``: padding tiles with this value leaves results
        unchanged (``+inf`` for min-rings, ``-inf`` for max-rings, ``0``
        for plus/or rings).
    otimes_annihilator:
        A value ``z`` with ``z ⊗ x == z`` for padding the *input* operands
        of rings whose ``⊗`` has one (``0`` for plus-mul/or-and).  ``None``
        when no such value exists (e.g. min-plus: padding inputs instead
        relies on ``oplus_identity`` absorbing the products).
    input_dtype / output_dtype:
        NumPy dtypes of the SIMD² datapath: fp16 in / fp32 out for numeric
        rings, bool/bool for or-and.
    associative_otimes:
        Whether ``⊗`` is associative; ``plus-norm`` is the one exception.
    commutative_otimes:
        Whether ``a ⊗ b == b ⊗ a`` (true for all nine SIMD² rings).
    distributive_otimes:
        Whether ``⊗`` distributes over ``⊕`` — the algebraic property the
        ABFT checksums in :mod:`repro.resilience.checksum` rest on
        (``⊕-fold(A) ⊗ b == ⊕-fold(A ⊗ b)``).  ``plus-norm`` is again the
        exception: ``(a+b-c)² != (a-c)² + (b-c)²``.
    """

    name: str
    oplus: Callable[[np.ndarray, np.ndarray], np.ndarray]
    otimes: Callable[[np.ndarray, np.ndarray], np.ndarray]
    oplus_identity: float | bool
    otimes_annihilator: float | bool | None = None
    input_dtype: np.dtype = dataclasses.field(default=np.dtype(np.float16))
    output_dtype: np.dtype = dataclasses.field(default=np.dtype(np.float32))
    associative_otimes: bool = True
    commutative_otimes: bool = True
    distributive_otimes: bool = True
    #: Values used to pad operands A and B along the inner (k) dimension.
    #: They must satisfy ``pad_a ⊗ pad_b == oplus_identity`` so padded inner
    #: steps are absorbed by the reduction (checked in __post_init__).
    #: Defaults to the ⊕ identity for both; rings whose ⊗ would map the
    #: identity pair elsewhere (e.g. max-mul: (-inf)·(-inf) = +inf) override.
    k_pad_a: float | bool | None = None
    k_pad_b: float | bool | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SemiringError("semiring name must be non-empty")
        object.__setattr__(self, "input_dtype", np.dtype(self.input_dtype))
        object.__setattr__(self, "output_dtype", np.dtype(self.output_dtype))
        if self.k_pad_a is None:
            object.__setattr__(self, "k_pad_a", self.oplus_identity)
        if self.k_pad_b is None:
            object.__setattr__(self, "k_pad_b", self.oplus_identity)
        pad_product = self.otimes(
            np.asarray(self.k_pad_a, dtype=self.output_dtype),
            np.asarray(self.k_pad_b, dtype=self.output_dtype),
        )
        if not np.array_equal(
            np.asarray(pad_product, dtype=self.output_dtype),
            np.asarray(self.oplus_identity, dtype=self.output_dtype),
        ):
            raise SemiringError(
                f"semiring {self.name!r}: k-padding pair "
                f"({self.k_pad_a}, {self.k_pad_b}) maps to {pad_product}, "
                f"not the ⊕ identity {self.oplus_identity}"
            )

    # ------------------------------------------------------------------
    # scalar/array algebra
    # ------------------------------------------------------------------
    def combine(self, c: np.ndarray, products: np.ndarray) -> np.ndarray:
        """Fold ``products`` into the accumulator ``c`` with ``⊕``."""
        return self.oplus(np.asarray(c, dtype=self.output_dtype), products)

    def reduce(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Reduce ``values`` along ``axis`` with ``⊕``.

        The reduction is performed in the output dtype, mirroring the
        fp32 accumulate path of the hardware unit.
        """
        values = np.asarray(values, dtype=self.output_dtype)
        if values.shape[axis] == 0:
            shape = list(values.shape)
            del shape[axis]
            return np.full(shape, self.oplus_identity, dtype=self.output_dtype)
        if isinstance(self.oplus, np.ufunc):
            return np.asarray(self.oplus.reduce(values, axis=axis), dtype=self.output_dtype)
        out = np.take(values, 0, axis=axis)
        for i in range(1, values.shape[axis]):
            out = self.oplus(out, np.take(values, i, axis=axis))
        return np.asarray(out, dtype=self.output_dtype)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Apply ``⊗`` element-wise in the output (accumulate) dtype."""
        a = np.asarray(a, dtype=self.input_dtype).astype(self.output_dtype)
        b = np.asarray(b, dtype=self.input_dtype).astype(self.output_dtype)
        return np.asarray(self.otimes(a, b), dtype=self.output_dtype)

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    def identity_matrix_value(self) -> float | bool:
        """The ``⊕``-identity as a Python scalar (tile-padding value)."""
        return self.oplus_identity

    def full(self, shape: tuple[int, ...], *, dtype: np.dtype | None = None) -> np.ndarray:
        """An array filled with the ``⊕`` identity."""
        return np.full(shape, self.oplus_identity, dtype=dtype or self.output_dtype)

    def is_boolean(self) -> bool:
        """True for the logical (or-and) ring."""
        return self.output_dtype == np.dtype(bool)

    def is_idempotent(self) -> bool:
        """True when ``⊕`` is a selection (min, max or or): ``x ⊕ x == x``.

        Folds over such a ``⊕`` are exact in any order, which is what
        Floyd–Warshall, blocked closure and exact ABFT checksums rely on.
        """
        return any(self.oplus is op for op in (np.minimum, np.maximum, np.logical_or))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name!r})"
