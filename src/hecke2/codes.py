"""Integer combinatorics of exponents: dyadic support, codes, domination.

Every exponent ``k`` splits its binary digits into the odd positions and the
even positions >= 2.  Gathering each group into an integer gives the pair
``(n3(k), n5(k))`` -- the *code* of ``k`` -- and ``h(k) = n3(k) + n5(k)``.
The map ``k -> code(k)`` is a bijection on each parity class; comparing
``(h, n5)`` lexicographically defines the domination total order that picks
out the dominant exponent of a parity-pure polynomial.

The scalar functions gather digits one exponent at a time; ``code_arrays``
gathers a whole range at once.  The dominant exponent of a polynomial is read
from a lazily built table of bit slices made from it: one mask over the
exponents for each bit of ``h`` and of ``n5``, which narrow the polynomial's
mask to its dominant exponent with one AND each.  ``dominant_exponent`` and
``h_poly`` are two reads of that one search: the last result is kept, keyed
on the form's mask and on the slice table object it was searched with, so a
second read of the same form costs no search, and a table grown or replaced
since is never served a stale answer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .deltapoly import DeltaPoly, _even_mask
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


# Bit k of a slice covers exponent k: slice b of ``h`` is set where bit b of
# h(k) is set, and likewise for ``n5``.  The table grows to the next power of
# two above the largest exponent asked for, from _TABLE_MIN up to _TABLE_CAP
# exponents; the command line's cap on the exponents of a form spec is the
# table's last exponent.
_TABLE_MIN = 1 << 12
_TABLE_CAP = 1 << 16


class _Slices(NamedTuple):
    size: int  # the slices cover exponents 0..size-1
    h: tuple[tuple[int, int], ...]  # (2^b, slice b of h), top bit first
    n5: tuple[int, ...]  # slice b of n5, top bit first


_table = _Slices(0, (), ())


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


def _bit_slices(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    """``(2^b, slice b)`` for each bit b of ``values``, top bit first: bit k
    of slice b is bit b of ``values[k]``."""
    bits = np.arange(int(values.max()).bit_length())[::-1]
    rows = np.packbits((values >> bits[:, None]) & 1, axis=1, bitorder="little")
    return tuple((1 << int(b), int.from_bytes(row.tobytes(), "little")) for b, row in zip(bits, rows))


def _slice_table(top: int) -> _Slices | None:
    """The slice table covering exponents ``0..top``, or None above the cap."""
    global _table
    if top < _table.size:
        return _table
    if top >= _TABLE_CAP:
        return None
    size = max(_TABLE_MIN, 1 << top.bit_length())
    a, b = code_arrays(size)
    _table = _Slices(size, _bit_slices(a + b), tuple(s for _, s in _bit_slices(b)))
    return _table


def domination_key(k: int) -> tuple[int, int]:
    """Sort key realizing the domination order within a parity class."""
    c = code(k)
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


def _dominant(mask: int) -> tuple[int, int]:
    """The dominant exponent of a nonzero parity-pure mask, and its ``h``.

    Each slice, h's from the top bit down and then n5's, keeps the candidates
    that have its bit whenever any does, so the survivors are those with the
    largest ``(h, n5)``.  That pair is injective on a parity class, so one
    exponent is left.
    """
    table = _slice_table(mask.bit_length() - 1)
    if table is None:
        top = max(bit_positions(mask), key=domination_key)
        return top, domination_key(top)[0]
    cand, hk = mask, 0
    for w, s in table.h:
        t = cand & s
        if t:
            cand, hk = t, hk | w
    for s in table.n5:
        t = cand & s
        if t:
            cand = t
    if cand & (cand - 1):
        raise AssertionError("the slice table leaves more than one dominant exponent")
    return cand.bit_length() - 1, hk


# The last search: (mask, the slice table it was searched with, (exponent, h)).
# The table is compared by identity: a grown or replaced table is another
# object, and holding the reference keeps its identity from being reused.
_last: tuple = (None, None, None)


def _search(f: DeltaPoly) -> tuple[int, int]:
    """``_dominant`` of a nonzero parity-pure form, kept for the next read."""
    global _last
    mask = f.mask
    last_mask, last_table, found = _last
    if mask == last_mask and _table is last_table:
        return found
    if not mask:
        raise ZeroPolynomial("the zero polynomial has no dominant exponent")
    even = mask & _even_mask(mask.bit_length())
    if even and even != mask:
        raise MixedParity("polynomial mixes even and odd exponents")
    found = _dominant(mask)
    _last = (mask, _table, found)
    return found


def dominant_exponent(f: DeltaPoly) -> int:
    """The exponent of ``f`` maximal for the domination order."""
    return _search(f)[0]


def h_poly(f: DeltaPoly) -> int | float:
    """max of ``h`` over the exponents of ``f`` (-inf for the zero polynomial).

    ``(h, n5)`` orders lexicographically, so this is ``h`` of the dominant
    exponent, and it shares ``dominant_exponent``'s search: a read of the
    same mask against the same slice table object returns the last result.
    """
    if not f:
        return NEG_INF
    return _search(f)[1]


def cap_H(b: int) -> int:
    """Gap ``sum_{i<=b} h(2^i) - 2 h(2^b)``; equals ``2^(b//2) - 2``."""
    if b < 1:
        raise ValueError("b must be >= 1")
    total = sum(h(1 << i) for i in range(1, b + 1)) - 2 * h(1 << b)
    if total != (1 << (b // 2)) - 2:
        raise AssertionError(f"prefix-gap identity fails at b={b}")
    return total
