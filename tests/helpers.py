"""Helpers the test modules share: short constructors and independent oracles."""

import itertools
import random

from hecke2.deltapoly import DeltaPoly
from hecke2.gf2series import BitSeries


def poly(*exponents) -> DeltaPoly:
    """The polynomial with the given exponents (a repeated exponent cancels)."""
    return DeltaPoly.from_exponents(exponents)


def sigma1(n: int) -> int:
    """Sum of the divisors of ``n``, by trial division to sqrt(n)."""
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            total += i
            j = n // i
            if j != i:
                total += j
        i += 1
    return total


def delta_qpow(p: int, precision: int) -> BitSeries:
    """The generator with ``q`` replaced by ``q^p``: bits at ``p * m**2``, m odd."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    bits = 0
    m = 1
    while p * m * m < precision:
        bits |= 1 << (p * m * m)
        m += 2
    return BitSeries(bits, precision)


def witness_mask(rng: random.Random, degree: int, terms: int, odd: bool) -> int:
    """A form of the ``queries`` benchmark workload, whose witnesses the seed leaves fixed.

    ``degree`` is 2^n - 1.  Part s (s = 0 only when ``odd``, else s = 0..3)
    holds the anchor (2^(n-s) - 1) << s, whose part exponent dominates the
    part, and the random terms lie below the anchors.
    """
    parts = 1 if odd else 4
    anchors = {((degree + 1 >> s) - 1) << s for s in range(parts)}
    pool = [e for e in range(1, degree) if (e & -e) < 1 << parts and e not in anchors]
    mask = 0
    for e in itertools.chain(anchors, rng.sample(pool, terms - parts)):
        mask |= 1 << e
    return mask
