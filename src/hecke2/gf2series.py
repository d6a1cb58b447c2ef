"""Truncated formal power series over GF(2).

A series is stored as a single Python integer whose bit ``n`` is the
coefficient of ``q^n``, together with an explicit ``precision`` (the number
of known coefficients).  Arithmetic never invents unknown coefficients:
results carry the minimum precision of their operands.

The module also provides the generator everything else is built from,
``delta`` (the weight-12 cusp form reduced mod 2, whose expansion has a
coefficient 1 exactly at the odd squares, listed by ``odd_squares``), and
``delta_powers``, the one ladder of the powers of ``delta``, each packed on
its exponent class mod 8.  It serves the relation solve, its residual
check, the naive power sums (the q-expansion of one is a stride of its
packed item), the leaves of the expansion ``deltapoly.to_series`` and the
starting powers and gaps of recognition.  The ladder depends on the
precision and the top power only, never on p, so one ladder is kept for the
process, like the list of ``odd_squares``, and every request is cut from it.
It grows on demand, its precision by doubling, and holds at most 16 MiB
(``_LADDER_BYTES``), which is room for the residual's ladder at p = 499; a
request whose own ladder is larger is built, returned and not kept.
A leaf of the expansion, a part of degree below 256, xors the packed items
of its exponents into eight class accumulators and unpacks each nonzero one
once with ``spread8``.  At the naive route's precision p*deg + 1 a leaf's
precision is at most about 256p, so its 256 items of 32p bits stay near
0.5 MiB at p = 499, far under the cap.  Between the leaves the expansion
multiplies by Delta as one shift of the other operand per odd square below
the precision.  Recognition in ``deltapoly`` peels one class mod 8 at a
time: it starts each class from the ladder's packed Delta^c and steps by
Delta^(8g), which packed on class 0 is the plain series of Delta^g, read
from the ladder's items below the precision or raised by square-and-multiply
past them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionTooLow

__all__ = [
    "BitSeries",
    "bit_positions",
    "square_multiply",
    "clmul",
    "spread_bits",
    "stride_bits",
    "spread8",
    "pack8",
    "zero",
    "one",
    "delta",
    "delta_powers",
    "odd_squares",
]

# Below these popcounts a plain Python loop beats the numpy round trip.
_POSITIONS_LOOP_LIMIT = 256
_SPREAD_LOOP_LIMIT = 512
# Below this many packed bits the string translation of spread8/pack8 beats
# numpy's unpackbits/packbits round trip.
_BYTEWISE_STR_LIMIT = 768
_DIGIT_TO_BYTE = tuple(bytes.maketrans(b"01", bytes((0, 1 << c))) for c in range(8))
_BYTE_TO_DIGIT = b"0" + b"1" * 255
# Above this popcount a factor-2 spread maps whole bytes through
# _doubled_bytes(); below it the per-bit loop is cheaper.
_DOUBLING_LOOP_LIMIT = 32


@functools.cache
def _doubled_bytes() -> np.ndarray:
    """Entry ``b`` is the 16-bit word with bit ``2i`` set for every bit ``i`` of ``b``."""
    return np.array(
        [sum(1 << (2 * i) for i in range(8) if b >> i & 1) for b in range(256)], dtype="<u2"
    )


def bit_positions(x: int) -> list[int]:
    """Ascending positions of the set bits of ``x`` (numpy path for dense masks).

    Every walk over the set bits of a fixed mask goes through here.  The loop
    clears the top bit each step, so the remaining mask shrinks as it goes.
    """
    if x.bit_count() <= _POSITIONS_LOOP_LIMIT:
        out = []
        while x:
            n = x.bit_length() - 1
            out.append(n)
            x ^= 1 << n
        out.reverse()
        return out
    arr = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)
    return np.nonzero(np.unpackbits(arr, bitorder="little"))[0].tolist()


def square_multiply(base, k: int, one):
    """``base**k`` by a left-to-right square-and-multiply ladder.

    ``base`` needs ``square()`` and ``*``; ``one`` is returned for ``k == 0``.
    """
    if k == 0:
        return one
    acc = base
    for i in range(k.bit_length() - 2, -1, -1):
        acc = acc.square()
        if (k >> i) & 1:
            acc = acc * base
    return acc


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)) product of two coefficient masks.

    Iterates over the set bits of the sparser operand, so dense-by-sparse
    products cost one big xor per set bit.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    for n in bit_positions(a):
        acc ^= b << n
    return acc


def spread_bits(mask: int, factor: int, limit: int | None = None) -> int:
    """Move every set bit ``n`` to position ``n * factor``.

    This is the exponent map behind squaring (``factor=2``) and the
    ``q -> q^p`` substitution (``factor=p``).  ``limit`` truncates the result
    to bits below ``limit``.
    """
    if factor == 1:
        return mask if limit is None else mask & ((1 << limit) - 1)
    if limit is not None:
        # Source bits at n >= ceil(limit/factor) land beyond the cut.
        mask &= (1 << ((limit + factor - 1) // factor)) - 1
    if mask == 0:
        return 0
    if mask.bit_count() <= (_DOUBLING_LOOP_LIMIT if factor == 2 else _SPREAD_LOOP_LIMIT):
        out = 0
        for n in bit_positions(mask):
            out |= 1 << (n * factor)
        return out
    src = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    if factor == 2:
        return int.from_bytes(_doubled_bytes()[src].tobytes(), "little")
    idx = np.nonzero(np.unpackbits(src, bitorder="little"))[0].astype(np.int64)
    idx *= factor
    size = int(idx[-1]) + 1
    bits = np.zeros(size, np.uint8)
    bits[idx] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def stride_bits(mask: int, step: int, start: int = 0) -> int:
    """Bit ``n`` of the result is bit ``start + n * step`` of ``mask``.

    It inverts ``spread_bits`` (``stride_bits(spread_bits(m, k), k) == m``):
    one slice of the binary digit string keeps every ``step``-th digit.
    """
    digits = format(mask >> start, "b")
    return int(digits[(len(digits) - 1) % step :: step], 2)


def spread8(packed: int, offset: int = 0, s: int = 0) -> int:
    """Move every set bit ``m`` to position ``2^s (8m + offset)``, for 0 <= offset < 8.

    This unpacks a mask stored on one residue class mod 8, where bit ``m``
    stands for exponent ``8m + offset``, and squares it s times.  ``pack8``
    inverts it at s = 0.
    """
    width, pos = 1 << s, offset << s
    if packed.bit_length() <= _BYTEWISE_STR_LIMIT:
        digits = format(packed, "b").encode().translate(_DIGIT_TO_BYTE[pos & 7])
        if s:  # each digit becomes a block of 2^s bytes
            out = bytearray(len(digits) << s)
            out[width - 1 - (pos >> 3) :: width] = digits
            digits = out
        return int.from_bytes(digits, "big")
    src = np.frombuffer(packed.to_bytes((packed.bit_length() + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(src, bitorder="little")
    if s:  # each bit becomes a block of 2^s bytes
        out = np.zeros(len(bits) << s, np.uint8)
        out[::width] = bits
        bits = out
    return int.from_bytes(bits.tobytes(), "little") << pos


def pack8(mask: int, offset: int = 0) -> int:
    """Bit ``m`` of the result is set when byte ``m`` of ``mask >> offset`` is nonzero.

    On a mask supported on the class ``offset`` mod 8 this keeps every eighth
    bit and inverts ``spread8``.
    """
    mask >>= offset
    if mask == 0:
        return 0
    nbytes = (mask.bit_length() + 7) // 8
    if nbytes <= _BYTEWISE_STR_LIMIT:
        return int(mask.to_bytes(nbytes, "big").translate(_BYTE_TO_DIGIT), 2)
    src = np.frombuffer(mask.to_bytes(nbytes, "little"), np.uint8)
    return int.from_bytes(np.packbits(src, bitorder="little").tobytes(), "little")


@dataclass(frozen=True, slots=True)
class BitSeries:
    """A power series over GF(2) known up to (excluding) ``precision``."""

    bits: int
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.bits < 0 or self.bits >> self.precision:
            raise ValueError("coefficients set beyond the stated precision")

    def coeff(self, n: int) -> int:
        """Coefficient of ``q^n``; asking past the precision is an error."""
        if n < 0 or n >= self.precision:
            raise PrecisionTooLow(f"coefficient {n} unknown at precision {self.precision}")
        return (self.bits >> n) & 1

    def support(self) -> tuple[int, ...]:
        """Exponents of the nonzero coefficients, ascending."""
        return tuple(bit_positions(self.bits))

    def truncate(self, precision: int) -> "BitSeries":
        if precision > self.precision:
            raise PrecisionTooLow(f"cannot extend precision {self.precision} to {precision}")
        return BitSeries(self.bits & ((1 << precision) - 1), precision)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "BitSeries") -> "BitSeries":
        prec = min(self.precision, other.precision)
        return BitSeries((self.bits ^ other.bits) & ((1 << prec) - 1), prec)

    def __mul__(self, other: "BitSeries") -> "BitSeries":
        prec = min(self.precision, other.precision)
        return BitSeries(clmul(self.bits, other.bits) & ((1 << prec) - 1), prec)

    def square(self) -> "BitSeries":
        """Frobenius square: the exponent-doubling bit spread, truncated."""
        return BitSeries(spread_bits(self.bits, 2, self.precision), self.precision)

    def pow(self, k: int) -> "BitSeries":
        """k-th power by a square-and-multiply chain (squares are cheap)."""
        if k < 0:
            raise ValueError("negative powers are not defined for series")
        return square_multiply(self, k, one(self.precision))


def zero(precision: int) -> BitSeries:
    return BitSeries(0, precision)


def one(precision: int) -> BitSeries:
    """The constant series 1."""
    return BitSeries(1, precision)


_ODD_SQUARES = [1]  # 1, 9, 25, ..., grown on demand


def odd_squares(precision: int) -> list[int]:
    """The odd squares below ``precision`` (>= 1), ascending: the exponents of Delta.

    There are ``(isqrt(precision - 1) + 1) // 2`` of them, read from one list
    grown on demand, so a product by Delta xors that many shifts of the other
    operand instead of enumerating Delta's bits.
    """
    count = (math.isqrt(precision - 1) + 1) // 2
    while len(_ODD_SQUARES) < count:
        _ODD_SQUARES.append((2 * len(_ODD_SQUARES) + 1) ** 2)
    return _ODD_SQUARES[:count]


def delta(precision: int) -> BitSeries:
    """The cusp-form generator: coefficient 1 exactly at odd squares."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    bits = 0
    for e in odd_squares(precision):
        bits |= 1 << e
    return BitSeries(bits, precision)


# The ladder ``delta_powers`` serves, (precision N, [Delta^0, ..., Delta^K]),
# grown on demand and never holding more than _LADDER_BYTES (``_ladder_bytes``).
_LADDER_BYTES = 16 << 20
_ladder: tuple[int, list[int]] = (0, [])


def _keep_masks(n: int) -> list[int]:
    """The packed bits below q^n on each class c mod 8, as masks."""
    return [(1 << max(0, (n - c + 7) // 8)) - 1 for c in range(8)]


def _extend(items: list[int], n: int, kmax: int) -> list[int]:
    """A new list of Delta^0..Delta^kmax below q^n that starts with ``items``,
    a ladder below q^n itself (or empty), which it leaves as it is."""
    out = items[:] or [1, pack8(delta(n).bits, 1)]
    keep = _keep_masks(n)
    for j in range(len(out), kmax + 1):
        if j % 2 == 0:
            half = j // 2
            cur = spread_bits(out[half], 2) << ((half % 8) >> 2)
        else:
            top = 1 << (j.bit_length() - 1)
            cur = clmul(out[j - top], out[top])
        out.append(cur & keep[j % 8])
    return out


def _ladder_bytes(n: int, kmax: int) -> int:
    """Bytes a ladder of Delta^0..Delta^kmax below q^n holds at most: per
    item an int of ceil(n/8) bits or fewer, and its list slot."""
    return (kmax + 1) * (sys.getsizeof(1 << n // 8) + 8)


def delta_powers(n: int, kmax: int) -> list[int]:
    """Delta^0..Delta^kmax below q^n (n >= 1), item j packed on its class j mod 8.

    Delta has its bits at the odd squares, so Delta^j lies on the class j mod
    8, and bit m of item j is the coefficient of q^(8m + j mod 8).  An even
    power is the Frobenius square of its half: class c squared lands on 2c,
    which wraps past 7 (one packed bit up) when c >= 4.  An odd power j is
    Delta^(j - 2^s) times the sparse Delta^(2^s), for the top bit 2^s of j
    (``clmul`` walks the sparser operand); its classes sum to j mod 8 without
    a wrap, since j - 2^s < 2^s.

    Every answer is a new list cut from one ladder kept for the process: its
    items at the held precision N, below N each item ANDed with its class's
    packed mask below q^n, which is what a build at n gives, since the low
    coefficients of a product read only the low ones of its factors.  A
    request past the held K, at n <= N, appends items to kmax; one past N
    rebuilds the ladder to kmax at max(n, 2N), so ascending requests rebuild
    it O(log) times, and the items past kmax are dropped, as a later request
    for them costs no more than building them now.  When that ladder's
    ``_ladder_bytes`` exceed ``_LADDER_BYTES``, the ladder to kmax at n is
    kept instead; when that too exceeds them, the request is built as if
    there were no store, returned and not kept, and the held ladder stays as
    it was.  The held ladder is replaced whole, never edited, so a reader
    always sees one consistent ladder.
    """
    global _ladder
    if n < 1:
        raise ValueError("precision must be >= 1")
    held, items = _ladder
    if n > held or kmax >= len(items):
        grown = held if n <= held else max(n, 2 * held)
        for prec in (grown, n):
            if _ladder_bytes(prec, kmax) <= _LADDER_BYTES:
                break
        else:
            return _extend([], n, kmax)[: kmax + 1]
        _ladder = held, items = prec, _extend(items if prec == held else [], prec, kmax)
    if n == held:
        return items[: kmax + 1]
    keep = _keep_masks(n)
    return [x & keep[j % 8] for j, x in enumerate(items[: kmax + 1])]
