"""Timings of the T_p applier shared by ``hecke_fast`` and ``ImageTable.apply``.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_applier.py

Each benchmark times one batch of calls, with the relations and tables built
outside the timed region, and checks the batch's results once afterwards.
"""

import random

import pytest

from hecke2.deltapoly import DeltaPoly
from hecke2.hecke import cached_charpoly, hecke_fast, image_table, odd_primes_up_to

PRIMES = odd_primes_up_to(31)


def sparse_mask(rng: random.Random, degree: int, terms: int, odd: bool = False) -> int:
    pool = range(1, degree, 2) if odd else range(degree)
    mask = 1 << degree
    for e in rng.sample(pool, terms - 1):
        mask |= 1 << e
    return mask


@pytest.fixture(scope="module")
def witness_tables():
    return {p: image_table(cached_charpoly(p), 4095) for p in (3, 5)}


def test_apply_odd_witness_steps(benchmark, witness_tables):
    # a witness applies T_3 and T_5 to odd forms until it reaches Delta; here
    # each chain runs to zero, so every step is an odd form of falling degree
    rng = random.Random(1)
    forms = [sparse_mask(rng, d, 24, odd=True) for d in (1023, 2047, 4095) for _ in range(4)]

    def chains():
        steps = 0
        for table in witness_tables.values():
            for mask in forms:
                while mask:
                    mask = table.apply(mask)
                    steps += 1
        return steps

    assert benchmark(chains) > 2 * len(forms)


def test_apply_dense_mixed_forms(benchmark):
    # 200 dense forms of 200 bits at each prime up to 31: every exponent
    # parity and 2-adic valuation up to 7
    rng = random.Random(2)
    tables = [image_table(cached_charpoly(p), 199) for p in PRIMES]
    forms = [rng.getrandbits(200) for _ in range(200)]

    def applies():
        return [table.apply(mask) for table in tables for mask in forms]

    out = benchmark(applies)
    assert out[-1] == hecke_fast(DeltaPoly(forms[-1]), cached_charpoly(PRIMES[-1])).mask


def test_hecke_fast_query_forms(benchmark):
    # the forms of the queries workload: 24 terms at degrees 2500, 5000 and
    # 10000, at every prime up to 31
    rng = random.Random(3)
    calls = [
        (cached_charpoly(p), DeltaPoly(sparse_mask(rng, d, 24)))
        for p in PRIMES
        for d in (2500, 5000, 10000)
    ]

    def queries():
        return [hecke_fast(f, cp) for cp, f in calls]

    out = benchmark(queries)
    cp, f = calls[0]
    assert out[0].mask == image_table(cp, f.degree).apply(f.mask)


def test_image_table_lookups(benchmark):
    table = image_table(cached_charpoly(3), 2009)

    def lookups():
        return [table[k] for k in range(len(table))]

    out = benchmark(lookups)
    assert len(out) == 2010 and out[1024].mask == table.apply(1 << 1024)
