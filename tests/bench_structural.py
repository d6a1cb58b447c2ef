"""Timings of the shift identities: ``check_shift3`` and ``check_shift5``.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_structural.py

Each benchmark checks both identities of one prime at every n <= 5 and
k <= 300, the range of the ``shift3-identities`` and ``shift5-identities``
claims, against a table of images built outside the timed region.
"""

import pytest

from hecke2.fast import hecke_fast_range
from hecke2.relation import cached_charpoly
from hecke2.structural import check_shift3, check_shift5


@pytest.mark.parametrize("p, check", [(3, check_shift3), (5, check_shift5)])
def test_shift_identities_to_n5_k300(benchmark, p, check):
    cp = cached_charpoly(p)
    table = hecke_fast_range(cp, 2 * 4**5 + 305)

    def sweep():
        return all(check(n, k, cp, table) for n in range(6) for k in range(301))

    assert benchmark(sweep)
