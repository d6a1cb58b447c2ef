"""The relation F_p(X, Y) behind the fast route: its solve, its residual and its cache files.

F_p(X, Y) = Y^(p+1) + s_1(X) Y^p + ... + s_(p+1)(X) is the unique symmetric
bivariate relation satisfied by the expansions X = Delta(q), Y = Delta(q^p).
Every s_r lies on the exponent class p*r mod 8.  The relation is computed
by a packed GF(2) linear solve, peeled along its triangle by
``gf2series._gf2_solve``, whose unknowns are the monomial bits allowed by
the degree and mod-8 congruence constraints, and checked apart from that
elimination by evaluating it at the two expansions (``relation_residual``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from . import gf2series
from .deltapoly import ONE, ZERO, DeltaPoly
from .errors import CacheFormatError, RankDeficient
from .gf2series import BitSeries, bit_positions, delta_powers, spread8
from .primes import _require_odd_prime


@dataclass(frozen=True, slots=True)
class CharPoly:
    """Coefficients s_1..s_(p+1) of the degree-(p+1) relation for T_p."""

    p: int
    s: tuple[DeltaPoly, ...]
    # hash of (p, s), computed on the first lookup: the caches keyed on the
    # relation would otherwise hash its p+1 coefficients at every call
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.s) != self.p + 1:
            raise ValueError(f"expected {self.p + 1} coefficients, got {len(self.s)}")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.p, self.s)))
        return self._hash

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


def _chosen_relation(p: int, chosen) -> CharPoly:
    """The relation of a solve for F_p: the bit X^j in s_r for each (r, j) in ``chosen``."""
    smasks = [0] * (p + 2)
    for r, j in chosen:
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
    lies on class 0 with its bits at 8p*m^2, m odd, and (Y^8)^k =
    Delta^k(q^(8p)) with a bit at 8p*e for each exponent e of Delta^k:
    packed, a product by it is one shift by p*e per term below q^n, and it
    keeps the class.  So ``ypos[i]`` lists the exponents of Y^i below n for
    i = 0..7 only, and ``y8[k]`` the packed shifts of Y^(8k), for
    k = 0..max_k.
    """

    def __init__(self, p: int, n: int, max_j: int, max_k: int = 1) -> None:
        self.p = p
        self.cmask = (1 << (n // 8)) - 1
        self.xpow = delta_powers(n, max_j)
        # Delta(q^p)^i has its bits at p times those of Delta^i below n/p
        ys = delta_powers(-(-n // p), 7)
        self.ypos = [[p * e for e in bit_positions(spread8(y, i))] for i, y in enumerate(ys)]
        tops = delta_powers(-(-n // (8 * p)), max_k)
        self.y8 = [[p * e for e in bit_positions(spread8(d, k % 8))] for k, d in enumerate(tops)]
        self.heads: dict[int, int] = {}

    def times_y(self, c: int, packed: int, i: int) -> tuple[int, int]:
        """Class and packed bits of a class-c packed mask times Delta(q^p)^i, i < 8."""
        d = (c + self.p * i) % 8
        acc = 0
        for pos in self.ypos[i]:
            acc ^= packed << ((pos + c - d) >> 3)
        return d, acc & self.cmask

    def times_y8(self, packed: int, k: int = 1) -> int:
        """Packed bits of a packed mask times Y^(8k), on the mask's own class."""
        acc = 0
        for sh in self.y8[k]:
            acc ^= packed << sh
        return acc & self.cmask

    def column(self, i: int, j: int) -> int:
        """Delta^j * Y^i packed on the class p(p+1) mod 8, for i = p+1-r of an
        allowed bit X^j of s_r, or (i, j) = (p+1, 0) for the monic Y^(p+1),
        with max_k at least (p+1) >> 3.

        Such an i is p+1-p*j mod 8 for a fixed j, so the head Delta^j *
        Y^(i mod 8) is built once per j and kept, and the column is the head
        times Y^(8(i >> 3)).
        """
        head = self.heads.get(j)
        if head is None:
            head = self.heads[j] = self.times_y(j % 8, self.xpow[j], i % 8)[1]
        return self.times_y8(head, i >> 3)

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


def residual_precision(p: int) -> int:
    """8(p+1)^2, the precision ``fp verify`` and the ``relation-structure``
    claim take F_p's residual to.

    A solved relation already vanishes through its window of (p+1)^2 + 1,
    and by the Sturm bound in ``compute_charpoly``'s docstring that proves
    it; these checks, which also read relations from cache files, go eight
    times as far.
    """
    return 8 * (p + 1) * (p + 1)


def _solve_relation(p: int, window: int) -> CharPoly:
    """Linear solve for the relation over one coefficient window, by peeling its triangle.

    Every term s_r(X) Y^(p+1-r) with s_r on its class p*r mod 8 lies on the
    class c = p(p+1) mod 8, so the solve works on packed masks.  Unknowns are
    the allowed monomial bits X^j of each s_r; the column of X^j in s_r is
    Delta^j * Y^i, i = p+1-r, Y = Delta(q^p), and its lowest exponent is
    j + p*i.  These are distinct but for two shared rows: X^(p+1) shares
    p+1 with X*Y at every p, and X^p*Y shares 2p with Y^2 when p = 1 mod 8
    (only then are both allowed).  Every other column owns its lowest row,
    packed bit (j + p*i - c) / 8, which gives back (i, j) = divmod(8*row + c, p).

    So the columns of lowest row inside the window are independent, and the
    system has full column rank exactly when every column has its lowest row
    inside the window and each of the one or two extra columns, X^(p+1) and
    X^p*Y, reduces to a nonzero vector against the owners and the extra
    before it.  ``gf2series._gf2_solve`` reduces the extras and then the
    right-hand side Y^(p+1) with ``owner`` as its owner rule, so only the
    columns a reduction reads are built (``_PackedTerms.column``), one at
    each read.  At full rank the solution is unique.
    """
    big = p + 1
    n_window = ((window + 7) // 8) * 8
    terms = _PackedTerms(p, n_window, big, big >> 3)
    c = (p * big) % 8

    def owner(row: int) -> int | None:
        """The column of the unknown (i, j) = divmod(8*row + c, p) that owns ``row``, if allowed."""
        i, j = divmod(8 * row + c, p)
        return terms.column(i, j) if i < big and i + j <= big else None

    deficient = f"coefficient window {n_window} leaves the relation underdetermined (p={p})"
    # the highest lowest exponent of a column, at the top allowed X^j of some
    # s_r: past the window that column vanishes, a dependency no peel reads
    top = max(p * (big - r) + r - (r - p * r) % 8 for r in range(1, big + 1) if (p * r) % 8 <= r)
    if top >= n_window:
        raise RankDeficient(deficient)
    extras = [(0, big), (1, p)][: 1 + (p % 8 == 1)]
    chosen = gf2series._gf2_solve(
        [terms.column(i, j) for i, j in extras],
        terms.column(big, 0),
        lambda idx: RankDeficient(deficient),
        lambda: AssertionError(f"no monic degree-{big} relation exists at p={p}"),
        owner,
    )
    n = len(extras)
    unknowns = (extras[b] if b < n else divmod(8 * (b - n) + c, p) for b in bit_positions(chosen))
    cp = _chosen_relation(p, ((big - i, j) for i, j in unknowns))
    if any(terms.residual(cp)):
        raise AssertionError(f"solved relation leaves a residual at p={p}")
    bad = structure_violations(cp)
    if bad:
        raise AssertionError(f"solved relation violates {bad} at p={p}")
    return cp


def compute_charpoly(p: int) -> CharPoly:
    """The relation coefficients via one structured linear solve.

    The coefficient window is (p+1)^2 + 1.  F_p satisfies every row at any
    window, so a solve of full column rank can only return F_p.  Every
    column has its lowest exponent at most p^2 + 1, inside the window, and
    all but the extra columns X^(p+1) and, at p = 1 mod 8, X^p*Y own their
    lowest rows (``_solve_relation``): the rank is full exactly when each
    extra peels to a nonzero vector.  A zero would be a column dependency: a
    polynomial G of Y-degree at most p, with every monomial X^a Y^b of
    a + b <= p+1, such that G(Delta, Delta(q^p)) vanishes below the window.
    Mod 2 that series is a form of weight 12(p+1) on Gamma_0(p) (E_4 = 1
    mod 2 evens out the weights), so by the Sturm bound it vanishes
    identically once it vanishes through q^((p+1)^2): no larger window adds
    rank, and a RankDeficient from this one solve is final.  The window is
    also nearly the least that works: at p=257 a window of 66560 < (p+1)^2
    holds every lowest row, and an extra peels to zero in it.
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
