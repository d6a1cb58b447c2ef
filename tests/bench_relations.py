"""Timings of the packed relation solve and the Sturm-bound residual.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_relations.py

Each benchmark times one batch of calls, with the relations it checks built
outside the timed region, and checks the batch's results once afterwards.
"""

import pytest

from hecke2.hecke import cached_charpoly, compute_charpoly, odd_primes_up_to, relation_residual


def test_compute_charpoly_to_181(benchmark):
    # the solves of the relations workload: every odd prime up to 181
    primes = odd_primes_up_to(181)

    def solves():
        return [compute_charpoly(p) for p in primes]

    out = benchmark(solves)
    assert out == [cached_charpoly(p) for p in primes]


@pytest.mark.parametrize("p", [181, 499])
def test_relation_residual_at_eight_squares(benchmark, p):
    # the residual to 8(p+1)^2: the relations workload's top prime, and the
    # largest prime the CLI accepts
    cp = cached_charpoly(p)
    precision = 8 * (p + 1) ** 2

    out = benchmark(relation_residual, cp, precision)
    assert out.precision == precision and out.is_zero()
