"""Exact Hecke-operator computations on level-1 modular forms mod 2."""

from .codes import NEG_INF, Code, code, decode, dominant_exponent, dominates, h, h_poly, n3, n5, support
from .deltapoly import DeltaPoly, FormDecomposition, Parity, decompose, from_series, monomial, to_series
from .gf2series import BitSeries, delta, one, zero
from .hecke import (
    CharPoly,
    cached_charpoly,
    charpoly_via_newton,
    compute_charpoly,
    hecke_fast,
    hecke_fast_range,
    hecke_matrix,
    hecke_naive,
    hecke_naive_series,
)
from .nilpotence import NilpotenceReport, apply_witness, g_bruteforce, g_general, g_odd

__all__ = [
    "BitSeries",
    "CharPoly",
    "Code",
    "DeltaPoly",
    "FormDecomposition",
    "NEG_INF",
    "NilpotenceReport",
    "Parity",
    "apply_witness",
    "cached_charpoly",
    "charpoly_via_newton",
    "code",
    "compute_charpoly",
    "decode",
    "decompose",
    "delta",
    "dominant_exponent",
    "dominates",
    "from_series",
    "g_bruteforce",
    "g_general",
    "g_odd",
    "h",
    "h_poly",
    "hecke_fast",
    "hecke_fast_range",
    "hecke_matrix",
    "hecke_naive",
    "hecke_naive_series",
    "monomial",
    "n3",
    "n5",
    "one",
    "support",
    "to_series",
    "zero",
]
