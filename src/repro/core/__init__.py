"""Semiring algebra: the SIMD² ``D = C ⊕ (A ⊗ B)`` computation pattern."""

from repro.core.semiring import Semiring, SemiringError
from repro.core.registry import (
    PLUS_MUL,
    MIN_PLUS,
    MAX_PLUS,
    MIN_MUL,
    MAX_MUL,
    MIN_MAX,
    MAX_MIN,
    OR_AND,
    PLUS_NORM,
    SEMIRINGS,
    get_semiring,
    semiring_names,
)
from repro.core.ops import mmo, mmo_reference
from repro.core.tiles import TILE, TilingError, pad_to_tiles, crop, tile_counts
from repro.core.semimatrix import SemiringMatrix
from repro.core.quantized import int8_variant, quantize_saturating

__all__ = [
    "Semiring",
    "SemiringError",
    "PLUS_MUL",
    "MIN_PLUS",
    "MAX_PLUS",
    "MIN_MUL",
    "MAX_MUL",
    "MIN_MAX",
    "MAX_MIN",
    "OR_AND",
    "PLUS_NORM",
    "SEMIRINGS",
    "get_semiring",
    "semiring_names",
    "mmo",
    "mmo_reference",
    "TILE",
    "TilingError",
    "pad_to_tiles",
    "crop",
    "tile_counts",
    "SemiringMatrix",
    "int8_variant",
    "quantize_saturating",
]
