"""Hecke operators T_p on GF(2) polynomials in the cusp-form generator.

Each route to T_p and to its relation F_p is a module of its own, and a
test reads their imports to keep them independent:

- ``naive``: T_p on q-expansions, and the matrices and closed forms it checks;
- ``relation``: F_p by a packed linear solve, its residual and cache files;
- ``newton``: F_p again from the naive power sums, closed through the stream;
- ``fast``: T_p by the recurrence of F_p, and the image tables;
- ``primes``: the odd primes they are all indexed by.

This module defines nothing.  It re-exports their public names, and
``_solve_relation``, which the benchmark tracer looks up here.
"""

from .fast import ImageTable, hecke_fast, hecke_fast_range, image_table, iter_hecke_fast, shared_image_table
from .naive import GF2Matrix, hecke_matrix, hecke_naive, hecke_naive_series, prop1_closed_form
from .newton import charpoly_via_newton
from .primes import is_odd_prime, odd_primes_up_to
from .relation import (
    CharPoly,
    _solve_relation,
    cache_dir,
    cache_path,
    cached_charpoly,
    charpoly_from_text,
    charpoly_to_text,
    compute_charpoly,
    read_charpoly,
    relation_residual,
    structure_violations,
    write_charpoly,
)

__all__ = [
    "CharPoly",
    "hecke_naive_series",
    "hecke_naive",
    "compute_charpoly",
    "charpoly_via_newton",
    "cached_charpoly",
    "iter_hecke_fast",
    "hecke_fast_range",
    "hecke_fast",
    "ImageTable",
    "image_table",
    "shared_image_table",
    "GF2Matrix",
    "hecke_matrix",
    "prop1_closed_form",
    "structure_violations",
    "relation_residual",
    "charpoly_to_text",
    "charpoly_from_text",
    "cache_dir",
    "cache_path",
    "write_charpoly",
    "read_charpoly",
    "is_odd_prime",
    "odd_primes_up_to",
]
