"""Timings of the packed relation solve, the Newton oracle and the Sturm-bound residual.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_relations.py

Each benchmark times one batch of calls, with the relations it checks built
outside the timed region, and checks the batch's results once afterwards.
The powers of Delta come from one ladder kept for the process
(``gf2series.delta_powers``): a warm batch finds it grown by the batches
before it, a cold one (``_cold``) finds it emptied, outside the timed region.
"""

import pytest

from hecke2 import gf2series
from hecke2.newton import charpoly_via_newton
from hecke2.primes import odd_primes_up_to
from hecke2.relation import cached_charpoly, compute_charpoly, relation_residual

COLD_ROUNDS = 10
SWEEP_ROUNDS = 3


def _empty_ladder():
    gf2series._ladder = (0, [])


def _solves_to(pmax):
    primes = odd_primes_up_to(pmax)
    return primes, lambda: [compute_charpoly(p) for p in primes]


def test_compute_charpoly_to_181(benchmark):
    # the solves of the relations workload: every odd prime up to 181
    primes, solves = _solves_to(181)
    out = benchmark(solves)
    assert out == [cached_charpoly(p) for p in primes]


def test_compute_charpoly_to_181_cold(benchmark):
    primes, solves = _solves_to(181)
    out = benchmark.pedantic(solves, setup=_empty_ladder, rounds=COLD_ROUNDS)
    assert out == [cached_charpoly(p) for p in primes]


def test_compute_charpoly_to_499(benchmark):
    # every relation the CLI accepts, ascending: 94 solves
    primes, solves = _solves_to(499)
    out = benchmark.pedantic(solves, rounds=SWEEP_ROUNDS)
    assert out == [cached_charpoly(p) for p in primes]


def test_compute_charpoly_499(benchmark):
    # the largest prime the CLI accepts, warm: its ladder kept from the last call
    out = benchmark(compute_charpoly, 499)
    assert out == cached_charpoly(499)


def test_compute_charpoly_499_cold(benchmark):
    out = benchmark.pedantic(compute_charpoly, args=(499,), setup=_empty_ladder, rounds=COLD_ROUNDS)
    assert out == cached_charpoly(499)


def _newton_to(pmax):
    primes = odd_primes_up_to(pmax)
    return primes, lambda: [charpoly_via_newton(p) for p in primes]


def test_charpoly_via_newton_to_61(benchmark):
    # the Newton solves of the oracle workload: every odd prime up to 61
    primes, solves = _newton_to(61)
    out = benchmark(solves)
    assert out == [cached_charpoly(p) for p in primes]


def test_charpoly_via_newton_to_127(benchmark):
    # the reach of newton-solve-agree under verify --long
    primes, solves = _newton_to(127)
    out = benchmark.pedantic(solves, rounds=SWEEP_ROUNDS)
    assert out == [cached_charpoly(p) for p in primes]


@pytest.mark.parametrize("p", [181, 499])
def test_relation_residual_at_eight_squares(benchmark, p):
    # the residual to 8(p+1)^2: the relations workload's top prime, and the
    # largest prime the CLI accepts
    cp = cached_charpoly(p)
    precision = 8 * (p + 1) ** 2

    out = benchmark(relation_residual, cp, precision)
    assert out.precision == precision and out.is_zero()


def _residuals_to_257():
    # the residual to 8(p+1)^2 at every odd prime up to 257, ascending
    cps = [cached_charpoly(p) for p in odd_primes_up_to(257)]
    return lambda: [relation_residual(cp, 8 * (cp.p + 1) ** 2) for cp in cps]


def test_relation_residual_sweep_to_257(benchmark):
    out = benchmark(_residuals_to_257())
    assert all(res.is_zero() for res in out)


def test_relation_residual_sweep_to_257_cold(benchmark):
    out = benchmark.pedantic(_residuals_to_257(), setup=_empty_ladder, rounds=COLD_ROUNDS)
    assert all(res.is_zero() for res in out)
