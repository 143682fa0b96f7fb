"""The nine SIMD² semirings (paper Tables 1 and 2) and their registry.

Each entry maps one SIMD² arithmetic instruction to the ``(⊕, ⊗)`` pair it
implements::

    plus-mul   D = C  +  Σ_k  A·B        GEMM / matrix inverse
    min-plus   D = min(C, min_k A+B)     all-pairs shortest paths
    max-plus   D = max(C, max_k A+B)     critical (longest) paths
    min-mul    D = min(C, min_k A·B)     minimum reliability paths
    max-mul    D = max(C, max_k A·B)     maximum reliability paths
    min-max    D = min(C, min_k max(A,B))  minimum spanning tree
    max-min    D = max(C, max_k min(A,B))  maximum capacity paths
    or-and     D = C  ∨  ∨_k (A ∧ B)     transitive & reflexive closure
    plus-norm  D = C  +  Σ_k (A-B)²      L2 distance (KNN, K-means)
"""

from __future__ import annotations

import numpy as np

from repro.core.semiring import Semiring, SemiringError

__all__ = [
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
]


def _squared_difference(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    diff = np.subtract(a, b, out=out)
    return np.multiply(diff, diff, out=out)


PLUS_MUL = Semiring(
    name="plus-mul",
    oplus=np.add,
    otimes=np.multiply,
    oplus_identity=0.0,
    otimes_annihilator=0.0,
)

MIN_PLUS = Semiring(
    name="min-plus",
    oplus=np.minimum,
    otimes=np.add,
    oplus_identity=np.inf,
)

MAX_PLUS = Semiring(
    name="max-plus",
    oplus=np.maximum,
    otimes=np.add,
    oplus_identity=-np.inf,
)

MIN_MUL = Semiring(
    name="min-mul",
    oplus=np.minimum,
    otimes=np.multiply,
    oplus_identity=np.inf,
)

MAX_MUL = Semiring(
    name="max-mul",
    oplus=np.maximum,
    otimes=np.multiply,
    oplus_identity=-np.inf,
    # (-inf)·(-inf) = +inf would poison the max; pad as (-inf)·(+inf) = -inf.
    k_pad_a=-np.inf,
    k_pad_b=np.inf,
)

MIN_MAX = Semiring(
    name="min-max",
    oplus=np.minimum,
    otimes=np.maximum,
    oplus_identity=np.inf,
)

MAX_MIN = Semiring(
    name="max-min",
    oplus=np.maximum,
    otimes=np.minimum,
    oplus_identity=-np.inf,
)

OR_AND = Semiring(
    name="or-and",
    oplus=np.logical_or,
    otimes=np.logical_and,
    oplus_identity=False,
    otimes_annihilator=False,
    input_dtype=np.dtype(bool),
    output_dtype=np.dtype(bool),
)

PLUS_NORM = Semiring(
    name="plus-norm",
    oplus=np.add,
    otimes=_squared_difference,
    oplus_identity=0.0,
    associative_otimes=False,
    distributive_otimes=False,
)

#: All nine SIMD² semirings, keyed by canonical name.
SEMIRINGS: dict[str, Semiring] = {
    ring.name: ring
    for ring in (
        PLUS_MUL,
        MIN_PLUS,
        MAX_PLUS,
        MIN_MUL,
        MAX_MUL,
        MIN_MAX,
        MAX_MIN,
        OR_AND,
        PLUS_NORM,
    )
}

#: Aliases accepted by :func:`get_semiring` (ISA mnemonics, underscores).
_ALIASES: dict[str, str] = {
    "mma": "plus-mul",
    "gemm": "plus-mul",
    "minplus": "min-plus",
    "maxplus": "max-plus",
    "minmul": "min-mul",
    "maxmul": "max-mul",
    "minmax": "min-max",
    "maxmin": "max-min",
    "orand": "or-and",
    "addnorm": "plus-norm",
    "add-norm": "plus-norm",
}


def semiring_names() -> tuple[str, ...]:
    """Canonical names of the nine SIMD² semirings, in ISA order."""
    return tuple(SEMIRINGS)


def get_semiring(name: str | Semiring) -> Semiring:
    """Look up a semiring by canonical name, alias, or pass one through.

    Accepts ``"min-plus"``, ``"min_plus"``, ``"minplus"``, ``"MINPLUS"``
    and the ISA mnemonics (``"mma"``, ``"addnorm"`` ...).
    """
    if isinstance(name, Semiring):
        return name
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key.replace("-", ""), _ALIASES.get(key, key))
    if key in SEMIRINGS:
        return SEMIRINGS[key]
    raise SemiringError(
        f"unknown semiring {name!r}; expected one of {sorted(SEMIRINGS)} "
        f"or aliases {sorted(_ALIASES)}"
    )
