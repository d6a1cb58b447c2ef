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
only and are kept in its record (``_Recurrence``), so one call pays its
tail octets times the terms of F_p.
``ImageTable`` cuts each odd image from its octet by one AND and keeps it in
that layout, as an odd-exponent mask: a T_p step on an odd form xors the
images of its set bits into the next odd mask, so the witness chain never
unpacks between steps.  A chain T^n takes one step of T^(2^i) per set bit i
of n, by power rows each table builds on first read and holds in plain
dicts (``ImageTable._rows``).  ``hecke_fast`` and ``ImageTable.apply``
decode a form's image through one loop (``_apply_odd_images``), the image
of one power is decoded by the stream alone, and ``shared_image_table``
keeps one table per relation, with its power rows, across calls for the
witness route.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat

from .deltapoly import ONE, ZERO, DeltaPoly, _odd_parts
from .errors import BadResidue
from .gf2series import _DOUBLING_LOOP_LIMIT, bit_positions, clmul, pack8, spread8, spread_bits
from .primes import MAX_PRIME, odd_primes_up_to
from .relation import CharPoly, _off_class


# one record per relation of every odd prime the command line reaches, so a
# run over all of them (``verify --long``) builds each plan and head once
_RELATIONS_HELD = len(odd_primes_up_to(MAX_PRIME))


class _Recurrence:
    """The recurrences of one relation: its step-2 plan, its step-8 tail terms
    and its head octets, streamed as far as asked.

    ``plan`` is, per index i mod 4, the terms (r, shifts) of the odd
    recurrence, and its seeds.

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

    ``terms`` holds (-r, 4e) for each term X^e of each s_r, the step-8
    recurrence of ``_odd_octets``.  ``head(n)`` returns H_0..H_(n-1), which
    fold the odd images 8j+1, ..., 8j+7 of the step-2 stream, drawn once per
    relation: the stream starts at the first call and a call past the octets
    held resumes it.  An off-class relation raises before a record is made.
    """

    __slots__ = ("cp", "plan", "terms", "octets", "_stream")

    def __init__(self, cp: CharPoly) -> None:
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
        self.plan = (tuple(shifts), seeds)
        self.terms = tuple((-r, 4 * e) for r, sr in enumerate(cp.s, 1) for e in sr.exponents())
        self.cp = cp
        self.octets: list[int] = []
        self._stream = None

    def head(self, n: int) -> list[int]:
        """H_0..H_(n-1), for n <= p + 1."""
        p = self.cp.p
        if self._stream is None:
            self._stream = _packed_stream(self.cp, 8 * p + 7)
        while len(self.octets) < n:
            j = len(self.octets)
            octet = 0
            for m, packed in zip(range(8 * j + 1, 8 * j + 8, 2), self._stream):
                octet |= spread_bits(packed, 4) << ((p * m & 7) >> 1)
            self.octets.append(octet)
        return self.octets[:n]


# keyed on the relation itself, so a corrupted relation has its own record
_recurrence = lru_cache(maxsize=_RELATIONS_HELD)(_Recurrence)


def _packed_stream(cp: CharPoly, kmax: int):
    """The odd images of Delta^k, k = 1, 3, ..., <= kmax, each packed on its class.

    Value i is image k = 2i + 1, with bit m for Delta^(8m + p*k mod 8).  All
    fast images start here: ``iter_hecke_fast`` unpacks them, and
    ``_Recurrence.head`` folds them into the head octets once per relation.
    One loop runs the relation's step-2 plan over a ring window of the last
    p+2 values and xors in the seeds; a slot not yet written reads 0, which
    gives N_j = 0 for j <= 0.
    """
    # the plan alone, so the head stream of a record does not hold its record
    shifts, seeds = _recurrence(cp).plan
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


def _apply_odd_images(groups: dict[int, list[int]], odd) -> int:
    """Exponent mask of T_p on the form split into ``groups`` (``_odd_parts``).

    ``odd[m >> 1]`` is the image of Delta^m, m odd, as an odd-exponent mask.
    For each 2-adic valuation s, the images of the odd parts m of the
    exponents 2^s m are xored into one accumulator, decoded once as the
    images squared s times (``_from_odd``).
    """
    out = 0
    for s, parts in groups.items():
        acc = 0
        for m in parts:
            acc ^= odd[m >> 1]
        out ^= _from_odd(acc, s)
    return out


# bytes of power rows, dict headers included, past which a table builds no
# row; the T_3 and T_5 tables to degree 16383 with rows at this bound,
# 2 * (4.5 + 3) MiB, fit under ``_SHARED_BYTES``, so a witness chain does not
# evict the other table of its pair
_POWER_BYTES = 3 << 20


@dataclass(frozen=True, slots=True)
class ImageTable:
    """T_p on forms of degree at most kmax, from the images of the odd powers.

    ``odd[j]`` is the image of Delta^(2j+1) as an odd-exponent mask: bit v
    stands for Delta^(2v+1), the layout of the octets it is cut from.
    ``apply`` maps a form's exponent mask to its image's, and ``apply_odd``
    maps an odd mask to the odd mask of its image, so a chain of steps stays
    in that layout.

    ``power_steps`` runs T^n by binary powers.  The rows of T^(2^i), i >= 1,
    are built on first read (``_rows``) and held in ``_levels``, level i at
    index i - 1, at most ``_POWER_BYTES`` of them (``_row_bytes``); a table
    made by ``dataclasses.replace`` starts with none.  A table with an odd
    image above its own power (``_in_degree`` false) builds no row and runs
    single steps only.  Rows cost memory and a first chain's time: on the
    ``queries`` witness forms, 24 terms at degree 4095, the T_3 and T_5
    tables hold about 1.1 MiB of rows beside their 0.66 MiB of odd images,
    and the first chain on a table builds thousands of rows
    (``nilpotence.apply_witness`` gives the times).
    """

    p: int
    kmax: int
    odd: tuple[int, ...]
    _levels: list[dict[int, int]] = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    _row_bytes: int = field(default=0, init=False, compare=False, repr=False)
    _odd_bytes: int = field(init=False, compare=False, repr=False)  # for the store's cap
    _in_degree: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        odd = self.odd
        object.__setattr__(self, "_odd_bytes", sys.getsizeof(odd) + sum(map(sys.getsizeof, odd)))
        # image v at or below Delta^(2v+1); rows built from such images stay
        # at or below their own powers too, so they stand for single steps
        # that each kept the degree
        object.__setattr__(
            self, "_in_degree", all(image.bit_length() <= v for v, image in enumerate(odd, 1))
        )

    def apply(self, mask: int) -> int:
        """Exponent mask of T_p applied to the form with exponent mask ``mask``."""
        if mask < 0:
            raise ValueError("exponent mask must be nonnegative")
        if mask.bit_length() > self.kmax + 1:
            raise IndexError(f"degree {mask.bit_length() - 1} above {self.kmax}")
        return _apply_odd_images(_odd_parts(mask), self.odd)

    def apply_odd(self, odd: int) -> int:
        """T_p on the odd mask ``odd`` (bit v for Delta^(2v+1)), as an odd mask."""
        self._check_odd(odd)
        acc = 0
        for v in bit_positions(odd):
            acc ^= self.odd[v]
        return acc

    def power_steps(self, odd: int, n: int):
        """T_p^n on the odd mask ``odd``, yielding the odd mask after each step.

        A set bit i of n, highest first, is one step of T^(2^i) by the rows of
        level i; the highest power first leaves the fewest bits for the lower
        ones.  Where a row of the level is not built, that step is two steps
        of the level below, down to single steps by the odd images.  So a step
        that reads power rows stands for single steps that kept each bit of
        the mask at or below its own degree.  The last mask yielded is T^n odd.
        """
        self._check_odd(odd)
        if n < 0:
            raise ValueError("the power must be nonnegative")
        for i in reversed(bit_positions(n)):
            for odd in self._level_steps(odd, i):
                yield odd

    def _check_odd(self, odd: int) -> None:
        if odd < 0:
            raise ValueError("odd mask must be nonnegative")
        if odd.bit_length() > len(self.odd):
            raise IndexError(f"degree {2 * odd.bit_length() - 1} above {self.kmax}")

    def _level_steps(self, odd: int, i: int, positions: list[int] | None = None):
        """T^(2^i) on ``odd``, whose set bits are ``positions`` if given: one
        step by the rows of level i, or two steps of level i - 1."""
        if positions is None:
            positions = bit_positions(odd)
        rows = self._rows(i, positions)
        if rows is not None:
            acc = 0
            for v in positions:
                acc ^= rows[v]
            yield acc
            return
        for odd in self._level_steps(odd, i - 1, positions):
            yield odd
        for odd in self._level_steps(odd, i - 1):
            yield odd

    def _rows(self, i: int, positions) -> tuple[int, ...] | dict[int, int] | None:
        """Level i with a row at each of ``positions``, or None if one is not built.

        Level 0 is ``odd``.  Row v of level i >= 1 is the odd mask of
        T^(2^i) Delta^(2v+1): level i - 1 applied twice, that is row v of
        level i - 1 and then the xor of its rows at the set bits of that row.
        Missing rows are built from level i - 1, on a table whose odd images
        are in degree, while its levels hold at most ``_POWER_BYTES``.
        """
        if not i:
            return self.odd
        if not self._in_degree:
            return None
        levels = self._levels
        while len(levels) < i:
            levels.append({})
            self._count(sys.getsizeof(levels[-1]))
        rows = levels[i - 1]
        for v in positions:
            if v in rows:
                continue
            if self._row_bytes > _POWER_BYTES:
                return None
            below = self._rows(i - 1, (v,))
            if below is None:
                return None
            half = bit_positions(below[v])
            if self._rows(i - 1, half) is None:
                return None
            acc = 0
            for u in half:
                acc ^= below[u]
            size = sys.getsizeof(rows)
            rows[v] = acc
            self._count(sys.getsizeof(rows) - size + sys.getsizeof(acc))
        return rows

    def _count(self, nbytes: int) -> None:
        object.__setattr__(self, "_row_bytes", self._row_bytes + nbytes)


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


# bytes of the tables ``shared_image_table`` keeps, power rows included, the
# least recently used dropped first: the T_3 and T_5 tables to degree 16383
# take about 4.5 MiB each, and at most ``_POWER_BYTES`` of rows each
_SHARED_BYTES = 16 << 20
_shared_tables: dict[CharPoly, ImageTable] = {}


def _table_bytes(table: ImageTable) -> int:
    """Bytes held by the odd images of ``table`` and its power rows, with their
    int, tuple and dict headers."""
    return table._odd_bytes + table._row_bytes


def shared_image_table(cp: CharPoly, kmax: int) -> ImageTable:
    """An image table of ``cp`` reaching at least ``kmax``, kept for later calls.

    The process-wide store is keyed on the relation itself, so a relation that
    differs from F_p in one bit gets its own table.  It holds one table per
    relation.  A request at or below the held table's kmax reuses it; a
    larger one replaces it with a table to the next 2^j - 1, so a run of
    growing requests runs each tail octet about twice (the relation's
    ``_Recurrence`` keeps the head).  A table holds the power rows its
    witness chains built (``ImageTable.power_steps``), and is dropped with
    them.  At every call the least recently used tables are dropped until the
    store holds at most ``_SHARED_BYTES`` (``_table_bytes``, rows included),
    so rows built since the last call count at this one; the table just asked
    for is never dropped.  On the ``queries`` witness forms, 24 terms at degree 4095, the
    T_3 and T_5 tables hold 0.66 MiB of odd images and about 1.1 MiB of rows.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    table = _shared_tables.pop(cp, None)
    if table is None or table.kmax < kmax:
        table = image_table(cp, (1 << kmax.bit_length()) - 1)
    _shared_tables[cp] = table  # reinserted: dict order is recency order
    held = sum(map(_table_bytes, _shared_tables.values()))
    while held > _SHARED_BYTES and len(_shared_tables) > 1:
        held -= _table_bytes(_shared_tables.pop(next(iter(_shared_tables))))
    return table


def _odd_octets(cp: CharPoly, top: int, keep) -> dict[int, int]:
    """The octets H_j, j in ``keep``, of the odd images up to ``top``:
    every octet for ``image_table``, those its form uses for ``hecke_fast``.

    Octet H_j holds N_(8j+1), N_(8j+3), N_(8j+5) and N_(8j+7): bit u is the
    coefficient of Delta^(2u+1).  Image m lies on the odd class p*m mod 8,
    which is 2u+1 mod 8 on the nibble lane u mod 4 = (p*m mod 8) >> 1, and
    the four classes of an octet are distinct.  H_0..H_p, which hold the odd
    images to 8(p+1) - 1, come from the relation's record
    (``_Recurrence.head``), of which the window takes the first
    (min(top, 8p + 7) >> 3) + 1.  Past it, for j > p up to top >> 3, H_j is
    the xor of H_(j-r) << 4e over each term X^e of each s_r (the step-8
    recurrence in the module docstring): a shift by 4e moves every
    exponent by 8e and keeps each lane.  So a call pays its tail octets
    times the terms of F_p, and the head once per relation.
    """
    p = cp.p
    rec = _recurrence(cp)
    window = rec.head((min(top, 8 * p + 7) >> 3) + 1)
    kept = {j: h for j, h in enumerate(window) if j in keep}
    window = deque(window, maxlen=p + 1)  # window[-r] is H_(j-r)
    terms = rec.terms
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
    part, and only the octets that hold an image f uses are kept.  Odd image
    m is H_(m >> 3) masked to the lane of its class p*m mod 8, and the table
    applier's loop (``_apply_odd_images``) xors and decodes them.
    """
    groups = _odd_parts(f.mask)
    wanted = {m >> 3 for parts in groups.values() for m in parts}
    if not wanted:
        return ZERO
    top = max(parts[-1] for parts in groups.values() if parts)
    octets = _odd_octets(cp, top, wanted)
    lanes = _lanes(octets)
    p = cp.p
    odd = {m >> 1: octets[m >> 3] & lanes[p * m & 7] for parts in groups.values() for m in parts}
    return DeltaPoly(_apply_odd_images(groups, odd))
