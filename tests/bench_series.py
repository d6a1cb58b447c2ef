"""Timings of q-series recognition, ``from_series`` and the peel it shares,
and of the recurrence stream behind ``hecke_fast_range``.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_series.py

Each benchmark times one batch of calls, with its inputs built outside the
timed region, and checks the batch's results once afterwards.
"""

import random

import pytest

from hecke2.deltapoly import DeltaPoly, from_series, to_series
from hecke2.hecke import (
    cached_charpoly,
    hecke_fast_range,
    hecke_naive,
    hecke_naive_series,
    image_table,
    odd_primes_up_to,
)
from hecke2.naive import _naive_monomial_range


def test_from_series_oracle_images(benchmark):
    # the naive images of the oracle workload: dense forms of degree 64-512
    # at every prime up to 31, recognized at hecke_naive's precision
    rng = random.Random(1)
    cases = []
    for p in odd_primes_up_to(31):
        for degree in (64, 128, 199, 256, 384, 512):
            f = DeltaPoly(rng.getrandbits(degree) | 1 << degree)
            cases.append((hecke_naive_series(to_series(f, p * degree + 1), p), degree, p, f))

    def recognize():
        return [from_series(image, degree) for image, degree, _, _ in cases]

    out = benchmark(recognize)
    _, _, p, f = cases[-1]
    assert out[-1] == hecke_naive(f, p)


def test_naive_monomial_range_newton_sums(benchmark):
    # the power sums the Newton oracle reads at p=61: the 93 naive images of
    # the odd powers below 3(p+1) = 186, each strided off its ladder item
    # onto one class mod 8 and peeled there
    out = benchmark(_naive_monomial_range, 61, 185, step=2)
    table = image_table(cached_charpoly(61), 185)
    assert [img.mask for img in out] == [table.apply(1 << k) for k in range(1, 186, 2)]


def test_from_series_dense_round_trip(benchmark):
    f = DeltaPoly(random.Random(2).getrandbits(10_000) | 1 << 10_000)
    series = to_series(f, 10_001)
    assert benchmark(from_series, series, 10_000) == f


@pytest.mark.parametrize("p", [3, 127])
def test_stream_every_image(benchmark, p):
    # every image to k = 4095: the odd stream, with each even image unpacked
    # from its odd part squared
    cp = cached_charpoly(p)
    out = benchmark(hecke_fast_range, cp, 4095)
    table = image_table(cp, 4095)
    assert [img.mask for img in out] == [table.apply(1 << k) for k in range(4096)]
