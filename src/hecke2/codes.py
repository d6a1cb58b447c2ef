"""Integer combinatorics of exponents: dyadic support, codes, domination.

Every exponent ``k`` splits its binary digits into the odd positions and the
even positions >= 2.  Gathering each group into an integer gives the pair
``(n3(k), n5(k))`` -- the *code* of ``k`` -- and ``h(k) = n3(k) + n5(k)``.
The map ``k -> code(k)`` is a bijection on each parity class; comparing
``(h, n5)`` lexicographically defines the domination total order that picks
out the dominant exponent of a parity-pure polynomial.
"""

from __future__ import annotations

from typing import NamedTuple

from .deltapoly import DeltaPoly, Parity
from .errors import MixedParity, ParityMismatch, ZeroPolynomial
from .gf2series import bit_positions

__all__ = [
    "NEG_INF",
    "Code",
    "support",
    "n3",
    "n5",
    "h",
    "code",
    "decode",
    "dominates",
    "domination_key",
    "dominant_exponent",
    "h_poly",
    "cap_H",
]

NEG_INF = float("-inf")


class Code(NamedTuple):
    n3: int
    n5: int


def support(k: int) -> frozenset[int]:
    """The powers of two (>= 2) appearing in the binary expansion of ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return frozenset(1 << n for n in bit_positions(k & ~1))


def _gather(k: int) -> Code:
    # Walk the digits two at a time: bit 2i+1 feeds n3, bit 2i+2 feeds n5.
    a = b = 0
    k >>= 1
    w = 1
    while k:
        if k & 1:
            a += w
        if k & 2:
            b += w
        k >>= 2
        w <<= 1
    return Code(a, b)


def n3(k: int) -> int:
    """Odd-position digit gather of ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _gather(k).n3


def n5(k: int) -> int:
    """Even-position (>= 2) digit gather of ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _gather(k).n5


def h(k: int) -> int:
    if k < 0:
        raise ValueError("k must be nonnegative")
    c = _gather(k)
    return c.n3 + c.n5


def code(k: int) -> Code:
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _gather(k)


def decode(c: Code | tuple[int, int], odd: int) -> int:
    """Inverse of ``code`` on the parity class selected by ``odd``."""
    a, b = c
    if a < 0 or b < 0:
        raise ValueError("code entries must be nonnegative")
    k = 1 if odd else 0
    pos = 1
    while a or b:
        if a & 1:
            k |= 1 << pos
        if b & 1:
            k |= 1 << (pos + 1)
        a >>= 1
        b >>= 1
        pos += 2
    return k


def domination_key(k: int) -> tuple[int, int]:
    """Sort key realizing the domination order within a parity class."""
    c = _gather(k)
    return (c.n3 + c.n5, c.n5)


def dominates(k: int, l: int) -> int:
    """Compare ``k`` against ``l``: -1 if dominated, 0 if equal, +1 if dominating.

    Only defined for equal parity; ties in ``h`` break on ``n5``, and equal
    ``(h, n5)`` forces ``k == l`` because the code map is a bijection.
    """
    if k < 0 or l < 0:
        raise ValueError("arguments must be nonnegative")
    if (k ^ l) & 1:
        raise ParityMismatch(f"{k} and {l} have different parities")
    a, b = domination_key(k), domination_key(l)
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _pure_exponents(f: DeltaPoly) -> tuple[int, ...]:
    p = f.parity_class()
    if p is Parity.MIXED:
        raise MixedParity("polynomial mixes even and odd exponents")
    if p is Parity.ZERO:
        raise ZeroPolynomial("the zero polynomial has no dominant exponent")
    return f.exponents()


def dominant_exponent(f: DeltaPoly) -> int:
    """The exponent of ``f`` maximal for the domination order."""
    return max(_pure_exponents(f), key=domination_key)


def h_poly(f: DeltaPoly) -> int | float:
    """max of ``h`` over the exponents of ``f`` (-inf for the zero polynomial)."""
    if f.parity_class() is Parity.MIXED:
        raise MixedParity("polynomial mixes even and odd exponents")
    if not f:
        return NEG_INF
    return max(h(e) for e in f.exponents())


def cap_H(b: int) -> int:
    """Gap ``sum_{i<=b} h(2^i) - 2 h(2^b)``; equals ``2^(b//2) - 2``."""
    if b < 1:
        raise ValueError("b must be >= 1")
    total = sum(h(1 << i) for i in range(1, b + 1)) - 2 * h(1 << b)
    if total != (1 << (b // 2)) - 2:
        raise AssertionError(f"prefix-gap identity fails at b={b}")
    return total
