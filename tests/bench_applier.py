"""Timings of T_p on forms: ``hecke_fast`` and ``ImageTable.apply``.

The file name keeps it out of the tier-1 suite; run it with pytest-benchmark
installed as

    pytest tests/bench_applier.py

Each benchmark times one batch of calls, with the relations and tables built
outside the timed region, and checks the batch's results once afterwards.
"""

import itertools
import random

import pytest

from hecke2.deltapoly import DeltaPoly, decompose, monomial
from hecke2.hecke import (
    cached_charpoly,
    hecke_fast,
    image_table,
    odd_primes_up_to,
)
from hecke2.nilpotence import apply_witness, g_general

PRIMES = odd_primes_up_to(31)


def sparse_mask(rng: random.Random, degree: int, terms: int, odd: bool = False) -> int:
    pool = range(1, degree, 2) if odd else range(degree)
    mask = 1 << degree
    for e in rng.sample(pool, terms - 1):
        mask |= 1 << e
    return mask


def witness_mask(rng: random.Random, degree: int, terms: int, odd: bool) -> int:
    # degree is 2^n - 1; 2-adic part s (s = 0 only when odd, else s = 0..3)
    # holds the anchor (2^(n-s) - 1) << s, whose part exponent dominates the
    # part, and the random terms lie below the anchors
    parts = 1 if odd else 4
    anchors = {((degree + 1 >> s) - 1) << s for s in range(parts)}
    pool = [e for e in range(1, degree) if (e & -e) < 1 << parts and e not in anchors]
    mask = 0
    for e in itertools.chain(anchors, rng.sample(pool, terms - parts)):
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


@pytest.mark.parametrize("p", [127, 257])
def test_hecke_fast_large_prime(benchmark, p):
    # one 24-term form of degree 16383: past a head of 4(p+1) odd images, the
    # octet tail runs (16383 >> 3) - p steps, each of one shift per term of F_p
    cp = cached_charpoly(p)
    f = DeltaPoly(sparse_mask(random.Random(p), 16383, 24))
    out = benchmark(hecke_fast, f, cp)
    # the step-2 route: every odd image streamed and summed by the table applier
    assert out.mask == image_table(cp, f.degree).apply(f.mask)


@pytest.mark.parametrize("p", [127, 257])
@pytest.mark.parametrize("past_seam", [0, 4002], ids=["top_at_seam", "top_past_seam"])
def test_hecke_fast_head_warmed(benchmark, p, past_seam):
    # a 4-term form whose top odd part is 8(p+1) - 1, the last head image, or
    # 8(p+1) + 4001; one untimed call holds the head, so a timed call pays
    # only the tail octets, (top >> 3) - p of them
    top = 8 * (p + 1) - 1 + past_seam
    rng = random.Random(p + past_seam)
    f = DeltaPoly(sum(1 << e for e in rng.sample(range(top), 3)) | 1 << top)
    cp = cached_charpoly(p)
    hecke_fast(f, cp)
    out = benchmark(hecke_fast, f, cp)
    assert out.mask == image_table(cp, top).apply(f.mask)


def test_witness_query_forms(benchmark):
    # the witness ops of the queries workload: g_general and a witness per
    # 2-adic part of 15 odd and 15 mixed 24-term forms at degrees 1023, 2047
    # and 4095; apply_witness reads its tables from the shared store, which
    # one untimed pass fills
    rng = random.Random(4)
    forms = [
        DeltaPoly(witness_mask(rng, (1023, 2047, 4095)[i % 3], 24, odd))
        for odd in (True, False)
        for i in range(15)
    ]

    def witnesses():
        return [
            (g_general(f).g, [apply_witness(part) for _, part in decompose(f).components])
            for f in forms
        ]

    witnesses()
    out = benchmark(witnesses)
    results = [r for _, rs in out for r in rs]
    assert len(results) == 15 + 4 * 15 and set(results) == {monomial(1)}
