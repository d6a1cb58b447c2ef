"""Helpers the test modules share: short constructors and independent oracles."""

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
