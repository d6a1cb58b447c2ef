"""The benchmark's view of the routes to T_p and F_p; nothing else imports it.

``perfbench`` reads these names here: its tracer's layers and cache probe,
its workloads and its reference builder.  Each is defined in a route module
(``naive``, ``relation``, ``newton``, ``fast``) or in ``primes``, and the
package and its tests import it from there.  ``tests/test_public_names.py``
holds ``__all__`` to the names the benchmark reads, all but
``_solve_relation``, which its tracer wraps by name.
"""

from .fast import hecke_fast, hecke_fast_range, iter_hecke_fast
from .naive import hecke_naive, hecke_naive_series
from .newton import charpoly_via_newton
from .primes import odd_primes_up_to
from .relation import (
    _solve_relation,
    cache_path,
    cached_charpoly,
    charpoly_to_text,
    compute_charpoly,
    read_charpoly,
    relation_residual,
    structure_violations,
    write_charpoly,
)

__all__ = [
    "hecke_naive_series",
    "hecke_naive",
    "compute_charpoly",
    "charpoly_via_newton",
    "cached_charpoly",
    "iter_hecke_fast",
    "hecke_fast_range",
    "hecke_fast",
    "structure_violations",
    "relation_residual",
    "charpoly_to_text",
    "cache_path",
    "write_charpoly",
    "read_charpoly",
    "odd_primes_up_to",
]
