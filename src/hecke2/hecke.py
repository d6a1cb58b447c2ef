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
images obey the same kind of recurrence with the coefficients squared, so
``hecke_fast`` and ``ImageTable`` run that one at half the steps and share
one applier, ``_apply_packed``, which squares the images of the odd parts
of a form (``deltapoly._odd_parts``) into every even one;
``shared_image_table`` keeps one table per relation across calls for the
witness route.  The relation itself is computed by a packed GF(2) linear
solve whose unknowns are the monomial bits allowed by the degree and mod-8
congruence constraints; the classical power-sum (Newton) identities give a
second derivation from naive data, used as an independent oracle.
"""

from __future__ import annotations

import os
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


def _naive_monomial_range(p: int, kmax: int) -> list[DeltaPoly]:
    """Naive images of every power 0..kmax from one packed ladder.

    The ladder ``delta_powers(p*kmax + 1, max(kmax, 7))`` gives both the
    expansion of each power and every power the peel of an image needs:
    the starting Delta^0..Delta^7 and the gaps, which stay below k/8.  So
    recognition computes no powers of its own.
    """
    _require_odd_prime(p)
    ladder = delta_powers(p * kmax + 1, max(kmax, 7))
    out = [ZERO]
    for k in range(1, kmax + 1):
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
    bits = _unpack_classes(terms.residual(cp), 0) & ((1 << precision) - 1)
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
    with the identities m = 1..3(p+1) imposed coefficient by coefficient.

    Identity m lies on the class c_m = p*m mod 8, as N_m and every
    s_i N_(m-i) do, so its row block holds it packed on that class: bit a
    stands for X^(8a + c_m), and a block of (3(p+1) >> 3) + 1 bits covers
    degree 3(p+1).  The entry of the unknown X^j of s_i in identity m is
    N_t X^j with t = m - i, which is packed N_t shifted by
    (j >> 3) + ((c_i + c_t) >> 3).  So one stream per class c, holding
    packed N_t shifted by (c + c_t) >> 3 in block t-1, gives every column of
    s_i as that stream for c = c_i moved up i blocks (and cut at identity
    3(p+1)) and then j >> 3 bits, plus the lone s_i bit of identity i at odd
    i.  The stream for c = 0 is the right-hand side.

    A closing pass runs the solution through ``_packed_stream``, the fast
    route's recurrence, which the packed solve does not use.  By induction on
    m, identity m closes on the unpacked sums exactly when image m is packed
    N_m and N_m has no bit off its class (``pack8`` folds one into its byte).
    Every image is compared with the naive sums, so a faulty stream can only
    raise.  Raises SingularSystem if the identities leave a bit undetermined,
    are inconsistent, or one of them does not close.
    """
    _require_odd_prime(p)
    big = p + 1
    rmax = 3 * big
    sums = [s.mask for s in _naive_monomial_range(p, rmax)]
    cls = [(p * m) % 8 for m in range(rmax + 1)]
    width = (rmax >> 3) + 1  # packed bits of one identity block
    full = (1 << (rmax * width)) - 1
    packed = [pack8(sums[t], cls[t]) for t in range(rmax + 1)]
    streams = []
    for c in range(8):
        acc = 0
        for t in range(rmax, 0, -1):
            acc = (acc << width) ^ (packed[t] << ((c + cls[t]) >> 3))
        streams.append(acc)

    # heads[i]: the column of X^(c_i), the lowest allowed bit of s_i
    heads = {
        i: ((streams[cls[i]] << (i * width)) & full) | (i & 1) << ((i - 1) * width)
        for i in range(1, big + 1)
    }
    bits = [(i, j) for i in range(1, big + 1) for j in range(cls[i], i + 1, 8)]
    chosen = _gf2_solve(
        (heads[i] << (j >> 3) for i, j in bits),
        streams[0],
        lambda idx: SingularSystem(
            f"power-sum identities leave s_{bits[idx][0]} underdetermined at p={p}"
        ),
        lambda: SingularSystem(f"power-sum identities are inconsistent at p={p}"),
    )
    cp = _chosen_relation(p, bits, chosen)
    for m, image in enumerate(_packed_stream(cp, rmax)):
        if m and not (image == packed[m] and spread8(packed[m], cls[m]) == sums[m]):
            raise SingularSystem(f"power-sum identity {m} does not close at p={p}")
    return cp


# ---------------------------------------------------------------------------
# fast route


@lru_cache(maxsize=64)
def _recurrence_plan(cp: CharPoly, step: int) -> tuple[tuple, tuple[int, ...]]:
    """Per index i mod 8, the terms (r, shifts) of the packed recurrence, and its seeds.

    Value i of the stream is image k = step*i + step - 1: every image at
    step 1, the odd images at step 2.  Coefficient s_r lies on the class p*r
    mod 8, so image k lies on the class c_k = p*k mod 8.  The power sums obey
    P(t) S(t) = t S'(t), with S(t) = 1 + s_1 t + ... + s_(p+1) t^(p+1),
    P(t) = sum_k N_k t^k and t S'(t) = sum over odd r of s_r t^r.
    Multiplied by S(t), the left side becomes P(t) S(t)^2, and S(t)^2 =
    sum_r s_r^2 t^(2r) is even, so the odd part of P times S(t)^2 is the odd
    part of t S'(t) S(t).  So the odd images obey the recurrence of the
    squared coefficients at step 2, seeded by a_j = sum over odd r of
    s_r s_(2j+1-r), with s_0 = 1, for j = 0..p.  Both hold for any monic
    relation on these classes, not only for F_p.

    With images packed on their classes, the term s_r^step * N_(k-step*r) is
    a xor of value i - r shifted by (step*e + c_(k-step*r) - c_k) >> 3 for
    each exponent e of s_r: exact and never negative, since
    step*e + c_(k-step*r) >= 0 is congruent to c_k mod 8.  Each seed is
    packed on the class of its image.
    """
    p = cp.p
    off = _off_class(cp)
    if off:
        raise BadResidue(f"s{off[0]} of the relation at p={p} leaves its class mod 8")
    shifts = []
    for i in range(8):
        k = step * i + step - 1
        ck = (p * k) % 8
        shifts.append(tuple(
            (r, tuple((step * e + (p * (k - step * r)) % 8 - ck) >> 3 for e in sr.exponents()))
            for r, sr in enumerate(cp.s, 1)
            if sr
        ))
    s = (ONE, *cp.s)
    if step == 1:
        numerator = [s[k].mask if k & 1 else 0 for k in range(p + 2)]
    else:
        # every product s_r s_(k-r) at once, by Kronecker substitution t = X^width
        width = 2 * max(sr.mask.bit_length() for sr in s)
        odd_part = sum(s[r].mask << (width * r) for r in range(1, p + 2, 2))
        even_part = sum(s[r].mask << (width * r) for r in range(0, p + 2, 2))
        prod = clmul(odd_part, even_part)
        numerator = [(prod >> (width * k)) & ((1 << width) - 1) for k in range(1, 2 * p + 2, 2)]
    seeds = tuple(pack8(m, (p * (step * i + step - 1)) % 8) for i, m in enumerate(numerator))
    return tuple(shifts), seeds


def _packed_stream(cp: CharPoly, kmax: int, *, step: int = 1):
    """Images of Delta^k for k <= kmax, each packed on its class p*k mod 8.

    Bit m of image k is the coefficient of Delta^(8m + p*k mod 8).  Step 1
    yields every image k = 0..kmax: the full stream of ``iter_hecke_fast``,
    the Newton oracle's closing pass and the ``verify`` sweeps.  Step 2
    yields the odd images k = 1, 3, ..., <= kmax in half the steps, and
    ``image_table`` and ``hecke_fast`` square them into every even one.
    The images are the power sums N_k, and mod 2 the Newton identities read
    N_k = s_1 N_(k-1) + ... + s_(p+1) N_(k-p-1) + [k odd, k <= p+1] s_k, so
    one loop runs the order-(p+1) recurrence of either plan
    (``_recurrence_plan``) over a ring window of the last p+2 packed values
    and xors in the seeds.  N_0 counts the p+1 conjugate series, an even
    number, so N_0 = 0; the window starts zeroed, and a slot not yet written
    reads 0, which gives N_j = 0 for j <= 0.
    """
    shifts, seeds = _recurrence_plan(cp, step)
    size = cp.p + 2
    window = [0] * size
    # the seeds ride along the index, so values past them pay no seed lookup
    for i, acc in zip(range((kmax + 1) // step), chain(seeds, repeat(0))):
        for r, term_shifts in shifts[i % 8]:
            m = window[(i - r) % size]
            if m:
                for sh in term_shifts:
                    acc ^= m << sh
        yield acc
        window[i % size] = acc


@lru_cache(maxsize=None)
def _squared_blocks(c: int, s: int) -> tuple[bytes, bytes]:
    """The 2^s big-endian bytes that a clear and a set packed bit become.

    Bit m of a mask packed on class c, squared s times, stands for
    Delta^(2^s (8m + c)): bit 2^s c of the m-th block of 2^s bytes.
    """
    width = 1 << s
    e = c << s
    one = bytearray(width)
    one[width - 1 - (e >> 3)] = 1 << (e & 7)
    return bytes(width), bytes(one)


def _unpack_squared(packed: int, c: int, s: int) -> int:
    """Exponent mask of (unpacked ``packed`` on class c)^(2^s), in one bytes pass.

    Each binary digit becomes 2^s bytes, as each becomes one byte in ``spread8``.
    """
    if not s:
        return spread8(packed, c)
    clear, set_ = _squared_blocks(c, s)
    digits = format(packed, "b").encode()
    return int.from_bytes(digits.replace(b"0", clear).replace(b"1", set_), "big")


def _unpack_classes(acc: list[int], s: int) -> int:
    """Exponent mask of eight per-class packed accumulators, squared s times."""
    out = 0
    for c, packed in enumerate(acc):
        if packed:
            out |= _unpack_squared(packed, c, s)
    return out


def _apply_packed(p: int, groups: dict[int, list[int]], odd) -> int:
    """Exponent mask of T_p on the form with the 2-adic split ``groups`` (``_odd_parts``).

    ``odd[m >> 1]`` is the image of Delta^m, m odd, packed on its class
    p*m mod 8.  T_p(g^2) = T_p(g)^2 in characteristic 2, so group s xors the
    images of its odd parts into eight class accumulators, each unpacked once
    and squared s times.  The constant term maps to 0.
    """
    out = 0
    for s, parts in groups.items():
        acc = [0] * 8
        for m in parts:
            acc[p * m & 7] ^= odd[m >> 1]
        out ^= _unpack_classes(acc, s)
    return out


def iter_hecke_fast(cp: CharPoly, kmax: int):
    """Stream the images of Delta^k for k = 0..kmax.

    Image k lies on the single exponent class p*k mod 8.  The recurrence
    runs on images packed on their classes (bit m stands for Delta^(8m + c)),
    so each shift and xor touches an eighth of the bits; this wrapper unpacks
    every image.  Memory stays proportional to p times the current degree.
    """
    p = cp.p
    for k, packed in enumerate(_packed_stream(cp, kmax)):
        yield DeltaPoly(spread8(packed, (p * k) % 8))


def hecke_fast_range(cp: CharPoly, kmax: int) -> list[DeltaPoly]:
    """Images of Delta^0..Delta^kmax as a list."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return list(iter_hecke_fast(cp, kmax))


@dataclass(frozen=True, slots=True)
class ImageTable:
    """Images of Delta^0..Delta^kmax, from the odd ones only.

    ``odd[j]`` is the image of Delta^(2j+1), packed on its class p(2j+1) mod 8.
    ``apply`` sums images through ``_apply_packed``, as ``hecke_fast`` does;
    ``table[k]`` decodes image 2^s m, m odd, as image m squared s times.
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
        m = k >> s
        return DeltaPoly(_unpack_squared(self.odd[m >> 1], (self.p * m) % 8, s))

    def apply(self, mask: int) -> int:
        """Exponent mask of T_p applied to the form with exponent mask ``mask``."""
        if mask < 0:
            raise ValueError("exponent mask must be nonnegative")
        if mask.bit_length() > self.kmax + 1:
            raise IndexError(f"degree {mask.bit_length() - 1} above {self.kmax}")
        return _apply_packed(self.p, _odd_parts(mask), self.odd)


def image_table(cp: CharPoly, kmax: int) -> ImageTable:
    """The images of Delta^0..Delta^kmax, for applying T_p repeatedly.

    Only the odd images are streamed, at half the recurrence steps.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return ImageTable(cp.p, kmax, tuple(_packed_stream(cp, kmax, step=2)))


# relations whose tables ``shared_image_table`` keeps, the least recently used dropped first
_SHARED_RELATIONS = 8
_shared_tables: dict[CharPoly, ImageTable] = {}


def shared_image_table(cp: CharPoly, kmax: int) -> ImageTable:
    """An image table of ``cp`` reaching at least ``kmax``, kept for later calls.

    The process-wide store is keyed on the relation itself, so a relation that
    differs from F_p in one bit gets its own table.  It holds one table per
    relation, for at most ``_SHARED_RELATIONS`` relations.  A request at or
    below the held table's kmax reuses it; a larger one replaces it with a
    table to the next 2^j - 1, so a run of growing requests streams each odd
    image about twice.  ``len`` of the result may exceed kmax + 1.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    table = _shared_tables.pop(cp, None)
    if table is None or table.kmax < kmax:
        table = image_table(cp, (1 << kmax.bit_length()) - 1)
    _shared_tables[cp] = table  # reinserted: dict order is recency order
    if len(_shared_tables) > _SHARED_RELATIONS:
        del _shared_tables[next(iter(_shared_tables))]
    return table


def hecke_fast(f: DeltaPoly, cp: CharPoly) -> DeltaPoly:
    """T_p of an arbitrary polynomial, over the odd packed stream.

    f is split once (``_odd_parts``): the stream runs to the largest odd part,
    keeps the images of the parts f uses, and ``_apply_packed`` sums them.
    """
    groups = _odd_parts(f.mask)
    wanted = {m >> 1 for parts in groups.values() for m in parts}  # m >> 1 indexes the odd stream
    if not wanted:
        return ZERO
    stream = _packed_stream(cp, 2 * max(wanted) + 1, step=2)
    odd = {j: packed for j, packed in enumerate(stream) if j in wanted}
    return DeltaPoly(_apply_packed(cp.p, groups, odd))


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
    images = _naive_monomial_range(p, K)
    rows = []
    for k in range(1, K + 1, 2):
        row = 0
        for e in images[k].exponents():
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
