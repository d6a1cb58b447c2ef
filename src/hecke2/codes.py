"""Integer combinatorics of exponents: dyadic support, codes, domination.

Every exponent ``k`` splits its binary digits into the odd positions and the
even positions >= 2.  Gathering each group into an integer gives the pair
``(n3(k), n5(k))`` -- the *code* of ``k`` -- and ``h(k) = n3(k) + n5(k)``.
The map ``k -> code(k)`` is a bijection on each parity class; comparing
``(h, n5)`` lexicographically defines the domination total order that picks
out the dominant exponent of a parity-pure polynomial.

The scalar functions gather digits one exponent at a time; ``code_arrays``
gathers a whole range at once, and the domination order of a polynomial reads
a lazily built table of packed keys made from it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


def n3(k: int) -> int:
    """Odd-position digit gather of ``k``."""
    return code(k).n3


def n5(k: int) -> int:
    """Even-position (>= 2) digit gather of ``k``."""
    return code(k).n5


def h(k: int) -> int:
    return sum(code(k))


def code(k: int) -> Code:
    """The pair ``(n3(k), n5(k))``, by a walk over the digits of ``k``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    # two digits per step: bit 2i+1 feeds n3, bit 2i+2 feeds n5
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


# Entry k is h(k) << 32 | n5(k), which sorts as (h, n5) does.  The table grows
# to the next power of two above the largest exponent asked for, from
# _TABLE_MIN up to _TABLE_CAP entries, which covers every exponent a form spec
# may hold.
_KEY_SHIFT = 32
_TABLE_MIN = 1 << 12
_TABLE_CAP = 1 << 16
_keys: list[int] = []


def _even_bits(x: np.ndarray) -> np.ndarray:
    """Gather the even-position bits of each entry (the unshuffle of Hacker's Delight 7-2)."""
    x = x & 0x5555555555555555
    x = (x | (x >> 1)) & 0x3333333333333333
    x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0F
    x = (x | (x >> 4)) & 0x00FF00FF00FF00FF
    x = (x | (x >> 8)) & 0x0000FFFF0000FFFF
    return (x | (x >> 16)) & 0x00000000FFFFFFFF


def code_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n3`` and ``n5`` of every exponent ``0..n-1`` as int64 arrays (the vector twin of ``code``)."""
    m = np.arange(n, dtype=np.int64) >> 1
    return _even_bits(m), _even_bits(m >> 1)


def _key_table(top: int) -> list[int] | None:
    """The key table covering exponents ``0..top``, or None above the cap."""
    global _keys
    if top < len(_keys):
        return _keys
    if top >= _TABLE_CAP:
        return None
    a, b = code_arrays(max(_TABLE_MIN, 1 << top.bit_length()))
    _keys = ((a + b) << _KEY_SHIFT | b).tolist()
    return _keys


def domination_key(k: int) -> tuple[int, int]:
    """Sort key realizing the domination order within a parity class."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    keys = _key_table(k)
    if keys is None:
        return (h(k), n5(k))
    return divmod(keys[k], 1 << _KEY_SHIFT)


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


def _dominant(exps: tuple[int, ...]) -> tuple[int, int]:
    """The dominant one of ascending pure exponents, and its ``h``."""
    keys = _key_table(exps[-1])
    if keys is None:
        top = max(exps, key=domination_key)
        return top, domination_key(top)[0]
    top = max(exps, key=keys.__getitem__)
    return top, keys[top] >> _KEY_SHIFT


def dominant_exponent(f: DeltaPoly) -> int:
    """The exponent of ``f`` maximal for the domination order."""
    return _dominant(_pure_exponents(f))[0]


def h_poly(f: DeltaPoly) -> int | float:
    """max of ``h`` over the exponents of ``f`` (-inf for the zero polynomial).

    ``(h, n5)`` orders lexicographically, so this is ``h`` of the dominant
    exponent.
    """
    if not f:
        return NEG_INF
    return _dominant(_pure_exponents(f))[1]


def cap_H(b: int) -> int:
    """Gap ``sum_{i<=b} h(2^i) - 2 h(2^b)``; equals ``2^(b//2) - 2``."""
    if b < 1:
        raise ValueError("b must be >= 1")
    total = sum(h(1 << i) for i in range(1, b + 1)) - 2 * h(1 << b)
    if total != (1 << (b // 2)) - 2:
        raise AssertionError(f"prefix-gap identity fails at b={b}")
    return total
