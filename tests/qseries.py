"""q-series the tests build and the package itself does not need."""

from hecke2.gf2series import BitSeries


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
