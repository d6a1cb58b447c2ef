"""Hecke operators T_p on GF(2) polynomials in the cusp-form generator.

Two independent evaluation routes are provided.  The *naive* route works on
q-expansions: expand the form, drop to every p-th coefficient (folding in the
multiples of p), and recognize the image polynomial.  The *fast* route first
computes the unique symmetric bivariate relation

    F_p(X, Y) = Y^(p+1) + s_1(X) Y^p + ... + s_(p+1)(X)

satisfied by the expansions X = Delta(q), Y = Delta(q^p); its coefficients
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

The relation itself is computed by a packed GF(2) linear solve whose
unknowns are the monomial bits allowed by the degree and mod-8 congruence
constraints; the classical power-sum (Newton) identities give a second
derivation from naive data, used as an independent oracle.  It reads the
naive images of the odd powers only, squares them into the even power sums,
imposes the odd identities, which imply the even ones, and closes through
the odd stream.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path

from .deltapoly import (
    ONE,
    ZERO,
    DeltaPoly,
    _odd_parts,
    _peel,
    from_series,
    monomial,
    to_series,
)
from .errors import (
    BadK,
    BadResidue,
    CacheFormatError,
    NotAPolynomial,
    NotPrime,
    RankDeficient,
    SingularSystem,
)
from .gf2series import (
    _DOUBLING_LOOP_LIMIT,
    BitSeries,
    bit_positions,
    clmul,
    delta_powers,
    pack8,
    spread8,
    spread_bits,
    stride_bits,
)

__all__ = [
    "CharPoly",
    "hecke_naive_series",
    "hecke_naive",
    "compute_charpoly",
    "charpoly_via_newton",
    "cached_charpoly",
    "iter_hecke_fast",
    "hecke_fast_range",
    "hecke_fast",
    "ImageTable",
    "image_table",
    "shared_image_table",
    "GF2Matrix",
    "hecke_matrix",
    "prop1_closed_form",
    "structure_violations",
    "relation_residual",
    "charpoly_to_text",
    "charpoly_from_text",
    "cache_dir",
    "cache_path",
    "write_charpoly",
    "read_charpoly",
    "is_odd_prime",
    "odd_primes_up_to",
]


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


# Largest --p and --pmax of the command line, and the reach of the `verify
# --long` claims over every prime.  It bounds the residual check at 8(p+1)^2
# bits, about 0.45 s at p = 499 on a 2-core machine, and keeps
# `is_odd_prime`'s trial division away from huge inputs.
MAX_PRIME = 500


def odd_primes_up_to(n: int) -> list[int]:
    if n < 3:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(3, n + 1, 2) if sieve[i]]


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise NotPrime(f"{p} is not an odd prime")


def _gf2_solve(columns, rhs: int, dependent, inconsistent) -> int:
    """Mask of the columns whose xor is ``rhs``, by incremental pivot elimination.

    ``columns`` yields packed GF(2) column vectors; each is reduced against
    the pivots so far, keyed by lowest set row, in insertion order.  A column
    that reduces to zero raises ``dependent(index)``; an ``rhs`` outside the
    column span raises ``inconsistent()``.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for idx, col in enumerate(columns):
        tracker = 1 << idx
        while col:
            low = (col & -col).bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (col, tracker)
                break
            col ^= hit[0]
            tracker ^= hit[1]
        else:
            raise dependent(idx)
    chosen = 0
    while rhs:
        hit = pivots.get((rhs & -rhs).bit_length() - 1)
        if hit is None:
            raise inconsistent()
        rhs ^= hit[0]
        chosen ^= hit[1]
    return chosen


# ---------------------------------------------------------------------------
# naive route


def hecke_naive_series(f: BitSeries, p: int) -> BitSeries:
    """Apply T_p on a q-expansion: gamma(n) = c(pn) (+ c(n/p) when p | n)."""
    _require_odd_prime(p)
    out_prec = (f.precision - 1) // p + 1
    # every p-th coefficient, then c(n/p) spread onto n = 0, p, 2p, ...
    out = stride_bits(f.bits, p) ^ spread_bits(f.bits, p, out_prec)
    return BitSeries(out, out_prec)


def hecke_naive(f: DeltaPoly, p: int) -> DeltaPoly:
    """T_p through q-expansions, at the minimal reconstructing precision.

    The image of a degree-d form is known to precision d + 1, which pins
    down a polynomial of degree <= d; ``from_series`` recognizes it one
    exponent class mod 8 at a time.
    """
    _require_odd_prime(p)
    if not f:
        return ZERO
    deg = f.degree
    image = hecke_naive_series(to_series(f, p * deg + 1), p)
    try:
        return from_series(image, deg)
    except NotAPolynomial as exc:  # would falsify the degree-drop law
        raise AssertionError(
            f"naive T_{p} image of a degree-{deg} form is not polynomial"
        ) from exc


def _naive_monomial_range(p: int, kmax: int, *, step: int = 1) -> list[DeltaPoly]:
    """Naive images of the powers up to kmax from one packed ladder.

    Item i is the image of Delta^(step*i + step - 1): every power 0..kmax at
    step 1, the odd powers 1, 3, ..., <= kmax at step 2.
    The ladder ``delta_powers(p*kmax + 1, max(kmax, 7))`` gives both the
    expansion of each power and every power the peel of an image needs:
    the starting Delta^0..Delta^7 and the gaps, which stay below k/8.  So
    recognition computes no powers of its own.
    """
    _require_odd_prime(p)
    ladder = delta_powers(p * kmax + 1, max(kmax, 7))
    out = [ZERO] if step == 1 else []
    for k in range(1, kmax + 1, step):
        # Delta^k at hecke_naive's precision p*k + 1: packed bits 8m + k mod 8 <= p*k
        low = ladder[k] & ((1 << ((p * k - k % 8) // 8 + 1)) - 1)
        image = hecke_naive_series(BitSeries(spread8(low, k % 8), p * k + 1), p)
        out.append(_peel(image.bits, image.precision, k, ladder))
    return out


# ---------------------------------------------------------------------------
# the bivariate relation


@dataclass(frozen=True, slots=True)
class CharPoly:
    """Coefficients s_1..s_(p+1) of the degree-(p+1) relation for T_p."""

    p: int
    s: tuple[DeltaPoly, ...]

    def __post_init__(self) -> None:
        if len(self.s) != self.p + 1:
            raise ValueError(f"expected {self.p + 1} coefficients, got {len(self.s)}")

    def bivariate_terms(self) -> frozenset[tuple[int, int]]:
        """(X-degree, Y-degree) pairs, including the monic Y^(p+1) term."""
        terms = {(0, self.p + 1)}
        for r, sr in enumerate(self.s, 1):
            for j in sr.exponents():
                terms.add((j, self.p + 1 - r))
        return frozenset(terms)

    def render(self) -> str:
        parts = []
        for x, y in sorted(self.bivariate_terms(), key=lambda t: (-t[1], -t[0])):
            frag = []
            if x == 1:
                frag.append("X")
            elif x:
                frag.append(f"X^{x}")
            if y == 1:
                frag.append("Y")
            elif y:
                frag.append(f"Y^{y}")
            parts.append(" ".join(frag) if frag else "1")
        return " + ".join(parts)


def _chosen_relation(p: int, unknowns, chosen: int) -> CharPoly:
    """The relation of a solve for F_p: X^j in s_r for each (r, j) = ``unknowns[idx]``, idx in ``chosen``."""
    smasks = [0] * (p + 2)
    for idx in bit_positions(chosen):
        r, j = unknowns[idx]
        smasks[r] |= 1 << j
    return CharPoly(p, tuple(DeltaPoly(sm) for sm in smasks[1:]))


def _off_class(cp: CharPoly) -> list[int]:
    """The r, ascending, whose s_r has a bit off its class p*r mod 8, each by
    one AND against the repeated byte of the other seven classes."""
    nbytes = max(sr.mask.bit_length() for sr in cp.s) // 8 + 1
    off = [int.from_bytes(bytes([0xFF ^ 1 << c]) * nbytes, "little") for c in range(8)]
    return [r for r, sr in enumerate(cp.s, 1) if sr.mask & off[(cp.p * r) % 8]]


def structure_violations(cp: CharPoly) -> list[str]:
    """Names of violated structural invariants (empty when all hold).

    Each s_r is checked on its mask: the degree bound by one shift, the class
    p*r mod 8 by ``_off_class``.  Symmetry is checked on the rows of F_p
    indexed by Y-degree (the X-degrees of the terms of Y^b, with the monic
    Y^(p+1)): every term X^a Y^b needs its mirror X^b Y^a, and that one
    direction makes the term set symmetric.
    """
    out = []
    off = set(_off_class(cp))
    for r, sr in enumerate(cp.s, 1):
        if sr.mask >> (r + 1):
            out.append(f"degree bound: s{r}")
        if r in off:
            out.append(f"congruence class: s{r}")
    big = cp.p + 1
    rows = [sr.mask for sr in reversed(cp.s)] + [1]
    if any(a > big or not rows[a] >> b & 1 for b, row in enumerate(rows) for a in bit_positions(row)):
        out.append("symmetry")
    return out


class _PackedTerms:
    """The terms of F_p(Delta, Delta(q^p)) below q^n, packed mod 8.

    ``n`` is a multiple of 8, and bit m of a mask packed on class c is the
    coefficient of q^(8m + c).  Delta has its bits at the odd squares, so
    Delta^j lies on the class j mod 8 and Delta(q^p)^i on the class p*i mod 8.
    ``xpow[j]`` is Delta^j packed on its class, for j = 0..max_j.  Every higher
    power of Y = Delta(q^p) is reached through Y^8 = Delta(q^(8p)), which
    lies on class 0 with its bits at 8p*m^2, m odd: packed, a product by Y^8
    is one shift by p*m^2 per term below q^n, and it keeps the class.  So
    ``ypos[i]`` lists the exponents of Y^i below n for i = 0..7 only, and
    ``y8`` the packed shifts of Y^8.
    """

    def __init__(self, p: int, n: int, max_j: int) -> None:
        self.p = p
        self.cmask = (1 << (n // 8)) - 1
        self.xpow = delta_powers(n, max_j)
        # Delta(q^p)^i has its bits at p times those of Delta^i below n/p
        ys = delta_powers(-(-n // p), 7)
        self.ypos = [[p * e for e in bit_positions(spread8(y, i))] for i, y in enumerate(ys)]
        # Y^8 has a bit at 8e for each exponent e of Y, packed as bit e
        self.y8 = [e for e in self.ypos[1] if 8 * e < n]

    def times_y(self, c: int, packed: int, i: int) -> tuple[int, int]:
        """Class and packed bits of a class-c packed mask times Delta(q^p)^i, i < 8."""
        d = (c + self.p * i) % 8
        acc = 0
        for pos in self.ypos[i]:
            acc ^= packed << ((pos + c - d) >> 3)
        return d, acc & self.cmask

    def times_y8(self, packed: int) -> int:
        """Packed bits of a packed mask times Y^8, on the mask's own class."""
        acc = 0
        for sh in self.y8:
            acc ^= packed << sh
        return acc & self.cmask

    def residual(self, cp: CharPoly) -> list[int]:
        """F_p(Delta, Delta(q^p)) below q^n, as eight per-class packed masks.

        F_p = sum_i s_(p+1-i)(X) Y^i with s_0 = 1, run as eight Horner chains
        in Y^8, one per i mod 8.  Each chain keeps eight class accumulators,
        so the bits of a relation off its classes or over its degree bounds
        land where a term-by-term sum puts them, and it is multiplied by
        Y^(i mod 8) once at the end.
        """
        big = cp.p + 1
        coeffs = (*reversed(cp.s), ONE)  # coeffs[i] is the coefficient of Y^i
        out = [0] * 8
        for e in range(8):
            acc = [0] * 8
            for i in range(big - (big - e) % 8, e - 1, -8):
                acc = [self.times_y8(a) if a else 0 for a in acc]
                for j in coeffs[i].exponents():
                    acc[j % 8] ^= self.xpow[j]
            for c, packed in enumerate(acc):
                if packed:
                    d, bits = self.times_y(c, packed, e)
                    out[d] ^= bits
        return out


def relation_residual(cp: CharPoly, precision: int) -> BitSeries:
    """F_p evaluated at the two expansions, truncated; must vanish.

    It runs by Horner in Y^8 (``_PackedTerms.residual``), exact below the
    precision for any relation, corrupted or not.
    """
    max_j = max((sr.degree for sr in cp.s if sr), default=0)
    terms = _PackedTerms(cp.p, 8 * -(-precision // 8), max_j)
    # the eight classes are disjoint, so their sum is their union
    bits = sum(spread8(packed, c) for c, packed in enumerate(terms.residual(cp)))
    bits &= (1 << precision) - 1
    return BitSeries(bits, precision)


def _solve_relation(p: int, window: int) -> CharPoly:
    """Linear solve for the relation over one coefficient window.

    Every term s_r(X) Y^(p+1-r) with s_r on its class p*r mod 8 lies on the
    class p(p+1) mod 8, so the solve works on packed masks.  Unknowns are the
    allowed monomial bits X^j of each s_r; their columns are the packed
    expansions of Delta^j * Delta(q^p)^(p+1-r).  For a fixed j the allowed r
    step by 8, so the columns go to the elimination with r descending and
    column (r, j) is column (r+8, j) times Y^8: only the chain heads, with
    Y-degree below 8, start from Delta^j, and one column per j is kept.  The
    right-hand side is Y^(p+1) = Y^((p+1) mod 8) (Y^8)^((p+1) div 8).  At
    full column rank the solution is unique, so the column order cannot
    change it.  Elimination keeps pivots keyed by lowest row with
    deterministic insertion order.
    """
    big = p + 1
    n_window = ((window + 7) // 8) * 8
    terms = _PackedTerms(p, n_window, big)
    unknowns = [(r, j) for r in range(big, 0, -1) for j in range((p * r) % 8, r + 1, 8)]

    def columns():
        latest = [0] * (big + 1)  # latest[j]: the last column of X^j
        for r, j in unknowns:
            i = big - r
            if i < 8:
                latest[j] = terms.times_y(j % 8, terms.xpow[j], i)[1]
            else:
                latest[j] = terms.times_y8(latest[j])
            yield latest[j]

    rhs = terms.times_y(0, 1, big % 8)[1]
    for _ in range(big // 8):
        rhs = terms.times_y8(rhs)
    chosen = _gf2_solve(
        columns(),
        rhs,
        lambda idx: RankDeficient(
            f"coefficient window {n_window} leaves the relation underdetermined (p={p})"
        ),
        lambda: AssertionError(f"no monic degree-{big} relation exists at p={p}"),
    )
    cp = _chosen_relation(p, unknowns, chosen)
    if any(terms.residual(cp)):
        raise AssertionError(f"solved relation leaves a residual at p={p}")
    bad = structure_violations(cp)
    if bad:
        raise AssertionError(f"solved relation violates {bad} at p={p}")
    return cp


def compute_charpoly(p: int) -> CharPoly:
    """The relation coefficients via one structured linear solve.

    The coefficient window is (p+1)^2 + 1.  F_p satisfies every row at any
    window, so a solve of full column rank can only return F_p.  A column
    dependency is a polynomial G of Y-degree at most p, with every monomial
    X^a Y^b of a + b <= p+1, such that G(Delta, Delta(q^p)) vanishes below
    the window.  Mod 2 that series is a form of weight 12(p+1) on Gamma_0(p)
    (E_4 = 1 mod 2 evens out the weights), so by the Sturm bound it vanishes
    identically once it vanishes through q^((p+1)^2): no larger window adds
    rank, and a RankDeficient from this one solve is final.  The window is
    also nearly the least that works (at p=257 a window of 66560 < (p+1)^2
    is rank-deficient).
    """
    _require_odd_prime(p)
    return _solve_relation(p, (p + 1) * (p + 1) + 1)


@lru_cache(maxsize=None)
def cached_charpoly(p: int) -> CharPoly:
    """``compute_charpoly(p)``, memoized for the life of the process.

    It never reads ``$HECKE2_CACHE_DIR``: the relation cache files are an
    export format, read only by ``read_charpoly`` (``fp show``, ``fp verify``).
    """
    return compute_charpoly(p)


# ---------------------------------------------------------------------------
# power-sum (Newton) oracle


def charpoly_via_newton(p: int) -> CharPoly:
    """Independent derivation of the relation from naive power-sum images.

    The power sums N_m are the naive images of the m-th powers, and mod 2
    the Newton identities read

        N_m + s_1 N_(m-1) + ... + s_(m-1) N_1 + [m odd, m <= p+1] s_m = 0,

    with s_i = 0 for i > p+1.  One elimination solves for the allowed
    monomial bits (degree and mod-8 class constraints) of every s_r at once,
    with the odd identities m = 1, 3, ..., 3(p+1) - 1 imposed coefficient by
    coefficient.  Only the odd sums are naive images: T_p(g^2) = T_p(g)^2
    mod 2, so N_2k = N_k^2, squared on the packed sums (bit a of class c goes
    to bit 2a + (c >> 2) of class 2c mod 8).

    The odd identities imply the even ones.  With S(t) = 1 + s_1 t + ... +
    s_(p+1) t^(p+1) and P(t) = sum_k N_k t^k, identities 1..M say that
    D = P S + S_o vanishes mod t^(M+1), where S_o is the odd part of S in t
    (t S' = S_o in characteristic 2).  Split P, S and D into even and odd
    parts: the odd part of D is O = P_e S_o + P_o S_e + S_o and the even
    part E = P_e S_e + P_o S_o.  If O = 0, then S_o (1 + P_e) = P_o S_e, so
    E (1 + P_e) = S_e (P_e + P_e^2 + P_o^2) = S_e (P_e + P^2) = 0, as the
    sums double: P_e = P^2.  1 + P_e is a unit (N_0 = 0), so E = 0.  This
    does not use s_0 = 1, so it holds for the homogeneous system too: the odd
    rows have the same solutions and the same column kernel as all rows, and
    the solve is unique, or raises on a dependent column or on an
    inconsistency, exactly where a solve over every identity would.  Since
    the even sums are squared packed, the doubling holds on the sums the
    solve reads even when ``pack8`` folds an off-class bit of an odd one.

    Identity m lies on the class c_m = p*m mod 8, as N_m and every
    s_i N_(m-i) do, so its row block (m-1)/2 holds it packed on that class:
    bit a stands for X^(8a + c_m), and a block of (3(p+1) >> 3) + 1 bits
    covers degree 3(p+1).  The entry of the unknown X^j of s_i in identity m
    is N_t X^j with t = m - i, which is packed N_t shifted by
    (j >> 3) + ((c_i + c_t) >> 3), in block (i >> 1) + (t >> 1); as m is
    odd, t and i have opposite parities.  So two streams per class c, over
    odd and over even t, each holding packed N_t shifted by (c + c_t) >> 3 in
    block t >> 1, give every column of s_i as the stream of the other parity
    for c = c_i moved up i >> 1 blocks (and cut at identity 3(p+1) - 1) and
    then j >> 3 bits, plus the lone s_i bit of identity i, in block i >> 1,
    at odd i.  The odd-t stream for c = 0 is the right-hand side.

    A closing pass runs the solution through ``_packed_stream``, the fast
    route's recurrence for the odd images, which the packed solve
    does not use.  By induction on odd m, each even sum below m being the
    square of a smaller one, identity m closes on the unpacked sums exactly
    when image m is packed N_m and N_m has no bit off its class (``pack8``
    folds one into its byte).  Every image is compared with the naive sums,
    so a faulty stream can only raise.  Raises SingularSystem if the
    identities leave a bit undetermined, are inconsistent, or one of them
    does not close.
    """
    _require_odd_prime(p)
    big = p + 1
    rmax = 3 * big
    odd = [s.mask for s in _naive_monomial_range(p, rmax - 1, step=2)]  # odd[i] is N_(2i+1)
    cls = [(p * m) % 8 for m in range(rmax)]
    packed = [0] * rmax
    for t in range(1, rmax):
        if t & 1:
            packed[t] = pack8(odd[t >> 1], cls[t])
        else:
            packed[t] = spread_bits(packed[t >> 1], 2) << (cls[t >> 1] >> 2)
    width = (rmax >> 3) + 1  # packed bits of one identity block
    full = (1 << ((rmax >> 1) * width)) - 1

    def stream(c: int, parity: int) -> int:
        acc = 0
        for t in range(rmax - 2 + parity, -1, -2):
            acc = (acc << width) ^ (packed[t] << ((c + cls[t]) >> 3))
        return acc

    streams = [[stream(c, parity) for c in range(8)] for parity in (0, 1)]
    # heads[i]: the column of X^(c_i), the lowest allowed bit of s_i; at odd i
    # its lone bit takes block 0 of the even-t stream, which holds N_0 = 0
    heads = {
        i: ((streams[~i & 1][cls[i]] | (i & 1)) << ((i >> 1) * width)) & full
        for i in range(1, big + 1)
    }
    bits = [(i, j) for i in range(1, big + 1) for j in range(cls[i], i + 1, 8)]
    chosen = _gf2_solve(
        (heads[i] << (j >> 3) for i, j in bits),
        streams[1][0],
        lambda idx: SingularSystem(
            f"power-sum identities leave s_{bits[idx][0]} underdetermined at p={p}"
        ),
        lambda: SingularSystem(f"power-sum identities are inconsistent at p={p}"),
    )
    cp = _chosen_relation(p, bits, chosen)
    for m, image in zip(range(1, rmax, 2), _packed_stream(cp, rmax)):
        if not (image == packed[m] and spread8(packed[m], cls[m]) == odd[m >> 1]):
            raise SingularSystem(f"power-sum identity {m} does not close at p={p}")
    return cp


# ---------------------------------------------------------------------------
# fast route


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
    recurrence in the ``hecke`` module docstring): a shift by 4e moves every
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


# ---------------------------------------------------------------------------
# matrices on the odd-power basis


@dataclass(frozen=True, slots=True)
class GF2Matrix:
    """Square GF(2) matrix; row i is a packed bit mask over columns."""

    rows: tuple[int, ...]

    def is_strictly_lower_triangular(self) -> bool:
        """Whether row i has no bit at column i or above.  Then the n x n matrix
        has M^n = 0: it maps basis vector i into the span of the first i."""
        return all(row >> i == 0 for i, row in enumerate(self.rows))


def hecke_matrix(p: int, K: int) -> GF2Matrix:
    """Matrix of T_p on the basis of odd powers 1, 3, ..., K (naive images).

    Row i holds the expansion of the image of the (2i+1)-st power, so strict
    lower triangularity is exactly the degree-drop/nilpotence statement.
    """
    _require_odd_prime(p)
    if K < 1 or K % 2 == 0:
        raise ValueError("K must be a positive odd integer")
    images = _naive_monomial_range(p, K, step=2)
    rows = []
    for k in range(1, K + 1, 2):
        row = 0
        for e in images[k >> 1].exponents():
            if e % 2 == 0 or e > K:
                raise AssertionError(f"image of power {k} leaves the odd basis at p={p}")
            row |= 1 << ((e - 1) // 2)
        rows.append(row)
    return GF2Matrix(tuple(rows))


# ---------------------------------------------------------------------------
# low-degree closed forms


def prop1_closed_form(p: int, k: int) -> DeltaPoly:
    """Image of Delta^k for k in {1,3,5,7}, as a closed form in p mod 8/16."""
    _require_odd_prime(p)
    if k not in (1, 3, 5, 7):
        raise BadK(f"no closed form for k={k}")
    r = p % 8
    if k == 1:
        return ZERO
    if k == 3:
        return monomial(1) if r == 3 else ZERO
    if k == 5:
        return monomial(1) if r == 5 else ZERO
    if r == 3:
        return monomial(5)
    if r == 5:
        return monomial(3)
    if p % 16 == 7:
        return monomial(1)
    return ZERO  # p = 1 mod 8, or p = 15 mod 16


# ---------------------------------------------------------------------------
# cache files


def charpoly_to_text(cp: CharPoly) -> str:
    """Serialize to the cache format: exponent lists, strictly decreasing."""
    lines = [f"p {cp.p}"]
    count = 0
    for r, sr in enumerate(cp.s, 1):
        exps = sr.exponents()
        count += len(exps)
        body = " ".join(str(e) for e in reversed(exps)) if exps else "-"
        lines.append(f"s{r}: {body}")
    lines.append(f"end {count}")
    return "\n".join(lines) + "\n"


def charpoly_from_text(text: str) -> CharPoly:
    """Parse the cache format back; trailing lines after `end` are ignored."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p "):
        raise CacheFormatError("missing `p <value>` header")
    try:
        p = int(lines[0][2:])
    except ValueError as exc:
        raise CacheFormatError("malformed prime header") from exc
    if len(lines) < p + 3:
        raise CacheFormatError("truncated cache file")
    s = []
    count = 0
    for r in range(1, p + 2):
        line = lines[r]
        prefix = f"s{r}:"
        if not line.startswith(prefix):
            raise CacheFormatError(f"expected `{prefix}` on line {r + 1}")
        body = line[len(prefix) :].strip()
        if body == "-":
            s.append(ZERO)
            continue
        try:
            exps = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise CacheFormatError(f"bad exponent list for s{r}") from exc
        if any(e < 0 for e in exps) or any(
            a <= b for a, b in zip(exps, exps[1:])
        ):
            raise CacheFormatError(f"exponents of s{r} must strictly decrease")
        count += len(exps)
        s.append(DeltaPoly.from_exponents(exps))
    tail = lines[p + 2]
    if not tail.startswith("end "):
        raise CacheFormatError("missing `end <count>` checksum line")
    try:
        declared = int(tail[4:])
    except ValueError as exc:
        raise CacheFormatError("malformed checksum line") from exc
    if declared != count:
        raise CacheFormatError(f"checksum mismatch: {declared} declared, {count} found")
    return CharPoly(p, tuple(s))


def cache_dir() -> Path:
    return Path(os.environ.get("HECKE2_CACHE_DIR", "fp_cache"))


def cache_path(p: int) -> Path:
    return cache_dir() / f"fp_{p}.txt"


def write_charpoly(cp: CharPoly) -> Path:
    target = cache_path(cp.p)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(charpoly_to_text(cp))
    return target


def read_charpoly(p: int) -> CharPoly:
    cp = charpoly_from_text(cache_path(p).read_text())
    if cp.p != p:
        raise CacheFormatError(f"cache file holds p={cp.p}, expected {p}")
    return cp
