"""The fast route: T_p by the linear recurrence of the relation F_p.

The coefficients of F_p(X, Y) = Y^(p+1) + s_1(X) Y^p + ... + s_(p+1)(X)
drive an order-(p+1) linear recurrence for the images of the powers of
Delta.  Every s_r lies on the exponent class p*r mod 8, so the image of
Delta^k lies on the class p*k mod 8 and the recurrence runs on images packed
on their classes.  In characteristic 2, T_p(g^2) = T_p(g)^2, and the odd
images obey the same kind of recurrence with the coefficients squared, at
half the steps; every even image is an odd one squared.

``hecke_fast`` goes one step further, to step 8.  With S(t) = 1 + s_1 t +
... + s_(p+1) t^(p+1) and P(t) = sum_k N_k t^k, the power sums obey
P S = t S'.  In characteristic 2 each Graeffe step of Bostan and Mori
(SOSA 2021) is a Frobenius square, Q(t) Q(-t) = Q(t)^2, and three of them
give S(t)^8 = sum_r s_r^8 t^(8r).  Multiplying P S = t S' by S^7 gives
P S^8 = t S' S^7, whose right side has t-degree at most 8(p+1) and top
coefficient (p+1) s_(p+1)^8 = 0.  So for n >= 8(p+1),
N_n = sum_r s_r^8 N_(n-8r), for any monic relation: a step-8 recurrence
whose shifts, 8e for each term X^e of s_r, do not depend on n.  Its octets
hold the four odd images N_(8j+1), ..., N_(8j+7), which lie on four
distinct odd classes, in one int (``_odd_octets``), bit u for Delta^(2u+1).
The head octets H_0..H_p, below the seam 8(p+1), depend on the relation
only and are kept per relation (``_head_octets``), so one call pays its
tail octets times the terms of F_p.
``ImageTable`` cuts each odd image from its octet by one AND and keeps it in
that layout, as an odd-exponent mask: a T_p step on an odd form xors the
images of its set bits into the next odd mask, so the witness chain never
unpacks between steps.  ``shared_image_table`` keeps one table per relation
across calls for the witness route.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

from .deltapoly import ONE, ZERO, DeltaPoly, _odd_parts
from .errors import BadResidue
from .gf2series import _DOUBLING_LOOP_LIMIT, bit_positions, clmul, pack8, spread8, spread_bits
from .relation import CharPoly, _off_class


@lru_cache(maxsize=64)
def _recurrence_plan(cp: CharPoly) -> tuple[tuple, tuple[int, ...]]:
    """Per index i mod 4, the terms (r, shifts) of the odd recurrence, and its seeds.

    Value i of the stream is image k = 2i + 1, on the class c_k = p*k mod 8
    (s_r lies on p*r mod 8), which depends on i mod 4 only.  The power sums
    obey P(t) S(t) = t S'(t), with S(t) = 1 + s_1 t + ... + s_(p+1) t^(p+1),
    P(t) = sum_k N_k t^k and t S'(t) = sum over odd r of s_r t^r.  Multiplied
    by S(t), the left side becomes P(t) S(t)^2, and S(t)^2 = sum_r s_r^2 t^(2r)
    is even, so the odd part of P times S(t)^2 is the odd part of t S'(t) S(t):
    the odd images obey the recurrence of the squared coefficients at step 2,
    seeded by a_j = sum over odd r of s_r s_(2j+1-r), with s_0 = 1, for
    j = 0..p.  This holds for any monic relation on these classes.

    With images packed on their classes, the term s_r^2 N_(k-2r) is a xor
    of value i - r shifted by (2e + c_(k-2r) - c_k) >> 3 for each exponent e
    of s_r: exact and never negative, since 2e + c_(k-2r) >= 0 is congruent
    to c_k mod 8.  Each seed is packed on the class of its image.
    """
    p = cp.p
    off = _off_class(cp)
    if off:
        raise BadResidue(f"s{off[0]} of the relation at p={p} leaves its class mod 8")
    shifts = []
    for k in (1, 3, 5, 7):
        ck = (p * k) % 8
        shifts.append(tuple(
            (r, tuple((2 * e + (p * (k - 2 * r)) % 8 - ck) >> 3 for e in sr.exponents()))
            for r, sr in enumerate(cp.s, 1)
            if sr
        ))
    s = (ONE, *cp.s)
    # every product s_r s_(k-r) at once, by Kronecker substitution t = X^width
    width = 2 * max(sr.mask.bit_length() for sr in s)
    odd_part = sum(s[r].mask << (width * r) for r in range(1, p + 2, 2))
    even_part = sum(s[r].mask << (width * r) for r in range(0, p + 2, 2))
    prod = clmul(odd_part, even_part)
    numerator = [(prod >> (width * k)) & ((1 << width) - 1) for k in range(1, 2 * p + 2, 2)]
    seeds = tuple(pack8(m, (p * (2 * i + 1)) % 8) for i, m in enumerate(numerator))
    return tuple(shifts), seeds


def _packed_stream(cp: CharPoly, kmax: int):
    """The odd images of Delta^k, k = 1, 3, ..., <= kmax, each packed on its class.

    Value i is image k = 2i + 1, with bit m for Delta^(8m + p*k mod 8).  All
    fast images start here: ``iter_hecke_fast`` unpacks them, and
    ``_head_octets`` folds them into the head octets once per relation.  One
    loop runs ``_recurrence_plan`` over a ring window of the last p+2 values
    and xors in the seeds; a slot not yet written reads 0, which gives
    N_j = 0 for j <= 0.
    """
    shifts, seeds = _recurrence_plan(cp)
    size = cp.p + 2
    window = [0] * size
    # the seeds ride along the index, so values past them pay no seed lookup
    for i, acc in zip(range((kmax + 1) // 2), chain(seeds, repeat(0))):
        for r, term_shifts in shifts[i % 4]:
            m = window[(i - r) % size]
            if m:
                for sh in term_shifts:
                    acc ^= m << sh
        yield acc
        window[i % size] = acc


def _from_odd(acc: int, s: int) -> int:
    """Exponent mask of the odd mask ``acc`` squared s times: bit u, for
    Delta^(2u+1), goes to Delta^(2^s (2u+1)).

    A sparse mask, or s = 0, takes ``spread_bits``' per-bit loop.  A denser
    one takes a digit-string path: for s >= 2 the exponent is 2^(s-2) (8u + 4),
    one unpack by ``spread8``, and for s = 1 two factor-2 spreads, which map
    whole bytes.
    """
    if s and acc.bit_count() > _DOUBLING_LOOP_LIMIT:
        if s >= 2:
            return spread8(acc, 4, s - 2)
        return spread_bits(spread_bits(acc, 2) << 1, 2)
    return spread_bits(acc, 2 << s) << (1 << s)


def iter_hecke_fast(cp: CharPoly, kmax: int):
    """Stream the images of Delta^k for k = 0..kmax.

    Only the odd images are computed (``_packed_stream``), packed on their
    classes.  Image k = 2^s m is odd image m squared s times, so its bit a
    goes to 2^s (8a + p*m mod 8), unpacked in one step by ``spread8``.  Only
    the odd images m with 2m <= kmax are read again, so only those are kept:
    memory is the packed odd images up to kmax / 2.
    """
    p = cp.p
    stream = _packed_stream(cp, kmax)
    odd = []  # odd[m >> 1] is packed image m, for the m with 2m <= kmax
    if kmax >= 0:
        yield ZERO
    for k in range(1, kmax + 1):
        s = (k & -k).bit_length() - 1
        m = k >> s
        if s:
            packed = odd[m >> 1]
        else:
            packed = next(stream)
            if 2 * k <= kmax:
                odd.append(packed)
        yield DeltaPoly(spread8(packed, p * m & 7, s))


def hecke_fast_range(cp: CharPoly, kmax: int) -> list[DeltaPoly]:
    """Images of Delta^0..Delta^kmax as a list."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return list(iter_hecke_fast(cp, kmax))


@dataclass(frozen=True, slots=True)
class ImageTable:
    """Images of Delta^0..Delta^kmax, from the odd ones only.

    ``odd[j]`` is the image of Delta^(2j+1) as an odd-exponent mask: bit v
    stands for Delta^(2v+1), the layout of the octets it is cut from.
    ``apply_odd`` maps an odd mask to the odd mask of its image, so a chain
    of steps stays in that layout.  ``apply`` xors the images of the odd
    parts m of a form's exponents 2^s m, group by group, and ``table[k]``
    takes image m alone; both decode group s as the images squared s times
    (``_from_odd``).
    """

    p: int
    kmax: int
    odd: tuple[int, ...]

    def __len__(self) -> int:
        return self.kmax + 1

    def __getitem__(self, k: int) -> DeltaPoly:
        if not 0 <= k <= self.kmax:
            raise IndexError(f"power {k} outside 0..{self.kmax}")
        if not k:
            return ZERO
        s = (k & -k).bit_length() - 1
        return DeltaPoly(_from_odd(self.odd[k >> s >> 1], s))

    def apply(self, mask: int) -> int:
        """Exponent mask of T_p applied to the form with exponent mask ``mask``."""
        if mask < 0:
            raise ValueError("exponent mask must be nonnegative")
        if mask.bit_length() > self.kmax + 1:
            raise IndexError(f"degree {mask.bit_length() - 1} above {self.kmax}")
        out = 0
        for s, parts in _odd_parts(mask).items():
            acc = 0
            for m in parts:
                acc ^= self.odd[m >> 1]
            out ^= _from_odd(acc, s)
        return out

    def apply_odd(self, odd: int) -> int:
        """T_p on the odd mask ``odd`` (bit v for Delta^(2v+1)), as an odd mask."""
        if odd < 0:
            raise ValueError("odd mask must be nonnegative")
        if odd.bit_length() > len(self.odd):
            raise IndexError(f"degree {2 * odd.bit_length() - 1} above {self.kmax}")
        acc = 0
        for v in bit_positions(odd):
            acc ^= self.odd[v]
        return acc


def image_table(cp: CharPoly, kmax: int) -> ImageTable:
    """The images of Delta^0..Delta^kmax, for applying T_p repeatedly.

    Only the odd images are computed: every octet up to kmax
    (``_odd_octets``), and odd image m is cut from H_(m >> 3) by one AND
    against the lane of its class p*m mod 8.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    octets = _odd_octets(cp, kmax, range((kmax >> 3) + 1))
    lanes = _lanes(octets)
    p = cp.p
    return ImageTable(p, kmax, tuple(octets[m >> 3] & lanes[p * m & 7] for m in range(1, kmax + 1, 2)))


# bytes of the tables ``shared_image_table`` keeps besides the one just asked
# for, the least recently used dropped first: the T_3 and T_5 tables to degree
# 16383 take about 4.5 MiB each
_SHARED_BYTES = 16 << 20
_shared_tables: dict[CharPoly, ImageTable] = {}


def _table_bytes(table: ImageTable) -> int:
    """Bytes held by the odd images of ``table``, with their int and tuple headers."""
    return sys.getsizeof(table.odd) + sum(map(sys.getsizeof, table.odd))


def shared_image_table(cp: CharPoly, kmax: int) -> ImageTable:
    """An image table of ``cp`` reaching at least ``kmax``, kept for later calls.

    The process-wide store is keyed on the relation itself, so a relation that
    differs from F_p in one bit gets its own table.  It holds one table per
    relation.  A request at or below the held table's kmax reuses it; a
    larger one replaces it with a table to the next 2^j - 1, so a run of
    growing requests runs each tail octet about twice (``_head_octets`` keeps
    the head).  ``len`` of the result may exceed kmax + 1.  After a build,
    the least recently used tables are dropped until the store holds at most
    ``_SHARED_BYTES`` (``_table_bytes``); the table just asked for is never
    dropped.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    table = _shared_tables.pop(cp, None)
    if table is None or table.kmax < kmax:
        table = image_table(cp, (1 << kmax.bit_length()) - 1)
        held = _table_bytes(table) + sum(map(_table_bytes, _shared_tables.values()))
        while held > _SHARED_BYTES and _shared_tables:
            held -= _table_bytes(_shared_tables.pop(next(iter(_shared_tables))))
    _shared_tables[cp] = table  # reinserted: dict order is recency order
    return table


class _HeadOctets:
    """The head octets H_0..H_p of one relation, streamed as far as asked.

    H_j folds the odd images 8j+1, ..., 8j+7 of the step-2 stream, which runs
    to 8p + 7 at most.  Each image is drawn once per relation: a call that
    reaches past the octets held resumes the stream where the last one left
    it, and a call at or below them draws nothing.
    """

    def __init__(self, cp: CharPoly) -> None:
        _recurrence_plan(cp)  # an off-class relation raises here, before it is kept
        self.p = cp.p
        self.octets: list[int] = []
        self._stream = _packed_stream(cp, 8 * cp.p + 7)

    def first(self, n: int) -> list[int]:
        """H_0..H_(n-1), for n <= p + 1."""
        p = self.p
        while len(self.octets) < n:
            j = len(self.octets)
            octet = 0
            for m, packed in zip(range(8 * j + 1, 8 * j + 8, 2), self._stream):
                octet |= spread_bits(packed, 4) << ((p * m & 7) >> 1)
            self.octets.append(octet)
        return self.octets[:n]


@lru_cache(maxsize=64)
def _head_octets(cp: CharPoly) -> _HeadOctets:
    """The head octets of ``cp``, kept across calls and keyed on the relation
    itself, like ``_recurrence_plan``, so a corrupted relation has its own."""
    return _HeadOctets(cp)


def _odd_octets(cp: CharPoly, top: int, keep) -> dict[int, int]:
    """The octets H_j, j in ``keep``, of the odd images up to ``top``:
    every octet for ``image_table``, those its form uses for ``hecke_fast``.

    Octet H_j holds N_(8j+1), N_(8j+3), N_(8j+5) and N_(8j+7): bit u is the
    coefficient of Delta^(2u+1).  Image m lies on the odd class p*m mod 8,
    which is 2u+1 mod 8 on the nibble lane u mod 4 = (p*m mod 8) >> 1, and
    the four classes of an octet are distinct.  H_0..H_p, which hold the odd
    images to 8(p+1) - 1, come from the relation's cached head
    (``_head_octets``), of which the window takes the first
    (min(top, 8p + 7) >> 3) + 1.  Past it, for j > p up to top >> 3, H_j is
    the xor of H_(j-r) << 4e over each term X^e of each s_r (the step-8
    recurrence in the module docstring): a shift by 4e moves every
    exponent by 8e and keeps each lane.  So a call pays its tail octets
    times the terms of F_p, and the head once per relation.
    """
    p = cp.p
    window = _head_octets(cp).first((min(top, 8 * p + 7) >> 3) + 1)
    kept = {j: h for j, h in enumerate(window) if j in keep}
    window = deque(window, maxlen=p + 1)  # window[-r] is H_(j-r)
    terms = tuple((-r, 4 * e) for r, sr in enumerate(cp.s, 1) for e in sr.exponents())
    for j in range(p + 1, (top >> 3) + 1):
        acc = 0
        for r, sh in terms:
            acc ^= window[r] << sh
        if j in keep:
            kept[j] = acc
        window.append(acc)
    return kept


def _lanes(octets: dict[int, int]) -> list[int]:
    """Per odd class c, the nibble lane c >> 1 of an octet, which holds its image
    on class c.  It is as wide as the octets, since a relation over its degree
    bounds has images past the top odd power asked for."""
    nibble = int.from_bytes(b"\x11" * (max(octets.values()).bit_length() // 8 + 1), "little")
    return [nibble << (c >> 1) for c in range(8)]


def hecke_fast(f: DeltaPoly, cp: CharPoly) -> DeltaPoly:
    """T_p of an arbitrary polynomial, over the octets of the odd images.

    f is split once (``_odd_parts``).  ``_odd_octets`` runs to the largest odd
    part, and only the octets that hold an image f uses are kept.  The odd
    parts m of valuation s xor their lanes, H_(m >> 3) masked to the lane of
    the class p*m mod 8, into one accumulator; bit u of it stands for
    Delta^(2u+1), which squared s times is Delta^(2^(s+1) u + 2^s).
    """
    groups = _odd_parts(f.mask)
    wanted = {m >> 3 for parts in groups.values() for m in parts}
    if not wanted:
        return ZERO
    top = max(parts[-1] for parts in groups.values() if parts)
    octets = _odd_octets(cp, top, wanted)
    lanes = _lanes(octets)
    p = cp.p
    out = 0
    for s, parts in groups.items():
        acc = 0
        for m in parts:
            acc ^= octets[m >> 3] & lanes[p * m & 7]
        out ^= _from_odd(acc, s)
    return DeltaPoly(out)
