"""Claim-based verification sweeps.

Each claim re-derives one structural statement (a table, identity, inequality
or structure theorem) over a configurable range and raises AssertionError on
the first violation; a library error raised inside a claim fails it too.
Under ``python -O`` the asserts are stripped, so every claim is recorded as
failed without being run.  The runner times the claims and assembles a report
the command line prints both as text and as line-oriented key=value records.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from . import structural
from .codes import _dominant, _slice_table, cap_H, code, code_arrays, decode, dominant_exponent, dominates, h, h_poly
from .deltapoly import DeltaPoly, Parity, _even_mask, decompose, from_series, monomial, to_series
from .errors import Hecke2Error, ParityMismatch
from .fast import ImageTable, hecke_fast_range, image_table, iter_hecke_fast, shared_image_table
from .gf2series import clmul
from .naive import _naive_monomial_range, hecke_matrix, hecke_naive, prop1_closed_form
from .newton import charpoly_via_newton
from .nilpotence import (
    _BOUNDS,
    apply_witness,
    check_bounds_g,
    check_bounds_n3,
    check_bounds_n5,
    g_bruteforce,
    g_general,
)
from .primes import MAX_PRIME, odd_primes_up_to
from .relation import CharPoly, cached_charpoly, relation_residual, structure_violations

__all__ = ["VerifyConfig", "ClaimResult", "VerificationReport", "SUITES", "run_suite"]


@dataclass(frozen=True)
class VerifyConfig:
    kmax: int = 4095
    pmax: int = 31
    long: bool = False

    @property
    def structure_kmax(self) -> int:
        return 32999 if self.long else self.kmax

    @property
    def shift_nmax(self) -> int:
        # the shift checks cost little next to the stream; n = 7 would add
        # about 73 MB of peak RSS for an image list to 2*4^7
        return 6 if self.long else 5


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    range_str: str
    ok: bool
    ms: float
    detail: str = ""


@dataclass
class VerificationReport:
    claims: list[ClaimResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def lines(self) -> list[str]:
        # key=value fields stay parseable: a space inside the range becomes _
        return [
            f"claim={c.claim_id} range={c.range_str.replace(' ', '_')} "
            f"status={'pass' if c.ok else 'fail'} ms={c.ms:.2f}"
            for c in self.claims
        ]

    def summary(self) -> str:
        passed = sum(c.ok for c in self.claims)
        total_ms = sum(c.ms for c in self.claims)
        return f"{passed}/{len(self.claims)} claims passed in {total_ms:.2f} ms"


_REGISTRY: dict[str, Callable[[VerifyConfig], str]] = {}
# suite name -> claim ids, in registration (file) order; "all" is added last
SUITES: dict[str, tuple[str, ...]] = {}


def _claim(claim_id: str, suite: str):
    def wrap(fn):
        _REGISTRY[claim_id] = fn
        SUITES[suite] = SUITES.get(suite, ()) + (claim_id,)
        return fn

    return wrap


# ---------------------------------------------------------------------------
# shared helpers


def _checked_primes(n: int) -> list[int]:
    """The odd primes up to ``n``; a claim over none of them would check nothing."""
    primes = odd_primes_up_to(n)
    if not primes:
        raise AssertionError(f"no odd prime <= {n} to check")
    return primes


def _checked_kmax(kmax: int) -> None:
    """Refuse a structure sweep to ``kmax`` that would check nothing (no k >= 1)
    or rank exponents above the cap of the domination order's slice table."""
    if kmax < 1:
        raise AssertionError(f"no power k in 1..{kmax} to check")
    if _slice_table(kmax) is None:
        raise AssertionError(f"k<={kmax} is above the domination key table's cap")


def _random_pure_mask(rng: random.Random, max_deg: int, odd: bool) -> int:
    """A nonzero random mask of degree <= max_deg on the odd exponents, or on
    the even exponents >= 2: the raw random bits under the class pattern."""
    even = _even_mask(max_deg + 1)
    pattern = even << 1 if odd else even & ~1
    while True:
        m = rng.getrandbits(max_deg + 1) & pattern
        if m:
            return m


def _image_codes(p: int, kmax: int):
    """Yield k, code(k) and the code of the dominant exponent of T_p(Delta^k).

    Codes are (n3, n5) pairs from ``code_arrays``; the dominant exponent is
    picked by ``codes._dominant`` from the slice table, and a zero image gives
    None.  The images are those of ``iter_hecke_fast``, for k = 0..kmax.  An
    image has degree below k, so every exponent is in the tables.
    """
    _checked_kmax(kmax)
    a, b = code_arrays(kmax + 1)
    n3s, n5s = a.tolist(), b.tolist()
    for k, image in enumerate(iter_hecke_fast(cached_charpoly(p), kmax)):
        dom = None
        if image:
            e = _dominant(image.mask)[0]
            dom = (n3s[e], n5s[e])
        yield k, (n3s[k], n5s[k]), dom


def _random_form(rng: random.Random, max_deg: int) -> DeltaPoly:
    """Any nonzero form of degree >= 1 (sparse-ish, mixed parity allowed)."""
    while True:
        mask = 0
        for _ in range(rng.randint(1, 24)):
            mask ^= 1 << rng.randint(0, max_deg)
        if rng.random() < 0.2:
            mask |= 1
        if mask & ~1:
            return DeltaPoly(mask)


# ---------------------------------------------------------------------------
# prop1 suite


@_claim("low-degree-closed-forms", "prop1")
def _low_degree_closed_forms(cfg: VerifyConfig) -> str:
    for p in _checked_primes(cfg.pmax - 1):
        for k in (1, 3, 5, 7):
            got = hecke_naive(monomial(k), p)
            want = prop1_closed_form(p, k)
            assert got == want, f"closed form fails at p={p}, k={k}"
    return f"p<{cfg.pmax}, k in {{1,3,5,7}}"


# ---------------------------------------------------------------------------
# tables suite

_TABLE3 = {
    0: (), 1: (), 3: (1,), 5: (), 7: (5,), 9: (3,), 11: (9,), 13: (7,),
    15: (13, 5), 17: (), 19: (17, 9), 21: (7,),
}
_TABLE5 = {
    0: (), 1: (), 3: (), 5: (1,), 7: (3,), 9: (), 11: (), 13: (9,),
    15: (11, 3), 17: (5,), 19: (7,), 21: (17, 9),
}


def _check_table(p: int, table: dict[int, tuple[int, ...]]) -> None:
    fast = hecke_fast_range(cached_charpoly(p), 21)
    for k, exps in table.items():
        want = DeltaPoly.from_exponents(exps)
        assert fast[k] == want, f"fast image table fails at p={p}, k={k}"
        assert hecke_naive(monomial(k), p) == want, f"naive table fails at p={p}, k={k}"


@_claim("t3-table", "tables")
def _t3_table(cfg: VerifyConfig) -> str:
    _check_table(3, _TABLE3)
    return "k in {0,1,3,...,21}"


@_claim("t5-table", "tables")
def _t5_table(cfg: VerifyConfig) -> str:
    _check_table(5, _TABLE5)
    return "k in {0,1,3,...,21}"


@_claim("naive-fast-agree", "tables")
def _naive_fast_agree(cfg: VerifyConfig) -> str:
    # --long covers every prime the CLI accepts.  Image k depends on s_1..s_k
    # only: a change in an odd s_r first shows at k = r, and in an even s_r at
    # k = r + m0, where N_m0 is the first nonzero power sum (m0 <= 33 below
    # 500).  So the powers run to k = p + 34, and at least to 200.  Both
    # decodes of the fast route meet the naive images there: the table's
    # applier on each monomial, and the stream.
    pmax = min(cfg.pmax, MAX_PRIME if cfg.long else 31)
    rng = random.Random(0xF2)
    for p in _checked_primes(pmax):
        kmax = max(200, p + 34)
        cp = cached_charpoly(p)
        table = image_table(cp, kmax)
        naive = _naive_monomial_range(p, kmax)
        m0 = next((m for m, img in enumerate(naive) if img), kmax + 1)
        assert p + 1 + m0 <= kmax, f"power k<={kmax} misses s_{p + 1} at p={p}"
        assert [DeltaPoly(table.apply(1 << k)) for k in range(kmax + 1)] == naive, f"monomial routes disagree at p={p}"
        assert list(iter_hecke_fast(cp, kmax)) == naive, f"stream and naive images disagree at p={p}"
        for _ in range(200 if p <= 31 else 50):
            f = DeltaPoly(rng.getrandbits(200) | (1 << 199))
            img = table.apply(f.mask)
            assert hecke_naive(f, p).mask == img, f"random-form routes disagree at p={p}"
    above = ", 50 above p=31" if pmax > 31 else ""
    krange = "k<=200" if pmax + 34 <= 200 else "k<=max(200,p+34)"
    return f"p<={pmax}, {krange}, 200 random forms per prime{above}"


@_claim("newton-solve-agree", "tables")
def _newton_solve_agree(cfg: VerifyConfig) -> str:
    # --long takes the oracle to p=127 (about 0.7 s of Newton solves on 2 cores);
    # p<=157 would cost about 2 to 2.5 s, most of it elimination
    pmax = min(cfg.pmax, 127 if cfg.long else 31)
    for p in _checked_primes(pmax):
        assert cached_charpoly(p) == charpoly_via_newton(p), f"methods split at p={p}"
    return f"p<={pmax}"


@_claim("relation-structure", "tables")
def _relation_structure(cfg: VerifyConfig) -> str:
    # --long covers every prime the CLI accepts; the residuals of the primes
    # 263..499 take about 10 s on 2 cores
    pmax = min(cfg.pmax, MAX_PRIME if cfg.long else 31)
    for p in _checked_primes(pmax):
        cp = cached_charpoly(p)
        bad = structure_violations(cp)
        assert not bad, f"{bad} at p={p}"
        res = relation_residual(cp, 8 * (p + 1) * (p + 1))
        assert res.is_zero(), f"relation residual nonzero at p={p}"
    return f"p<={pmax}, residual to 8(p+1)^2"


@_claim("recurrence-genfun", "tables")
def _recurrence_genfun(cfg: VerifyConfig) -> str:
    """Product form (sum_k P_k t^k)(1 + sum_r s_r t^r) = t S'(t) = sum_(r odd) s_r t^r.

    Images come from the odd stream, the even ones squared, and products from
    clmul on unpacked masks.  Both sides read one F_p, so a corrupted F_p
    passes by construction and the mutation target is the stream, whose first
    wrong image m fails the identity at m (``test_recurrence_genfun_covers_every_prime_to_pmax``).
    With ``naive-fast-agree`` it checks the stream the Newton oracle closes through.
    """
    pmax = max(cfg.pmax, 5)
    for p in odd_primes_up_to(pmax):
        cp = cached_charpoly(p)
        pk = hecke_fast_range(cp, 200)
        for m in range(201):
            acc = pk[m].mask
            for r in range(1, min(m, p + 1) + 1):
                sr = cp.s[r - 1].mask
                if sr:
                    acc ^= clmul(sr, pk[m - r].mask)
            want = cp.s[m - 1].mask if (m <= p + 1 and m & 1) else 0
            assert acc == want, f"product identity fails at p={p}, m={m}"
        if p in (3, 5):
            numerator = {
                m: cp.s[m - 1] for m in range(1, p + 2, 2) if cp.s[m - 1]
            }
            assert numerator == {p: monomial(1)}, f"numerator is not Delta t^{p}"
    return f"p<={pmax}, k<=200"


@_claim("series-roundtrips", "tables")
def _series_roundtrips(cfg: VerifyConfig) -> str:
    rng = random.Random(0x27)
    for _ in range(300):
        f = DeltaPoly(rng.getrandbits(128))
        d = f.degree if f else 0
        assert from_series(to_series(f, d + 1), d) == f, "roundtrip fails"
    for _ in range(50):
        f = DeltaPoly(rng.getrandbits(64))
        g = DeltaPoly(rng.getrandbits(64))
        n = 160
        assert to_series(f * g, n) == to_series(f, n) * to_series(g, n), (
            "expansion is not multiplicative"
        )
    return "300 random roundtrips + 50 random products"


@_claim("decompose-reassembly", "tables")
def _decompose_reassembly(cfg: VerifyConfig) -> str:
    rng = random.Random(0x2A)
    for _ in range(1000):
        f = DeltaPoly(rng.getrandbits(513))
        dec = decompose(f)
        assert dec.reassemble() == f, "reassembly fails"
        for s, part in dec.components:
            assert part and all(e & 1 for e in part.exponents()), "component not odd"
        assert [s for s, _ in dec.components] == sorted({s for s, _ in dec.components}), (
            "components not ordered"
        )
    return "1000 random polynomials, deg<=512"


# ---------------------------------------------------------------------------
# codes suite

_PARITY_N3 = (0, 0, 1, 1, 0, 0, 1, 1)
_PARITY_N5 = (0, 0, 0, 0, 1, 1, 1, 1)
_PARITY_H = (0, 0, 1, 1, 1, 1, 0, 0)


@_claim("code-parity-table", "codes")
def _code_parity_table(cfg: VerifyConfig) -> str:
    lim = 100_000
    a, b = code_arrays(lim + 1)
    ks = np.arange(lim + 1)
    r = ks & 7
    assert np.all((a & 1) == np.take(_PARITY_N3, r)), "n3 parity table fails"
    assert np.all((b & 1) == np.take(_PARITY_N5, r)), "n5 parity table fails"
    assert np.all(((a + b) & 1) == np.take(_PARITY_H, r)), "h parity table fails"
    # vectorized gathers must agree with the scalar operations
    rng = random.Random(7)
    for _ in range(2000):
        k = rng.randrange(lim + 1)
        assert code(k) == (a[k], b[k]), f"gather mismatch at k={k}"
    return "k<=1e5"


@_claim("odd-step-invariance", "codes")
def _odd_step_invariance(cfg: VerifyConfig) -> str:
    lim = 100_000
    a, b = code_arrays(2 * lim + 2)
    ev = np.arange(0, 2 * lim + 1, 2)
    assert np.all(a[ev] == a[ev + 1]), "n3 changes from 2l to 2l+1"
    assert np.all(b[ev] == b[ev + 1]), "n5 changes from 2l to 2l+1"
    return "l<=1e5"


@_claim("code-doubling-rules", "codes")
def _code_doubling_rules(cfg: VerifyConfig) -> str:
    lim = 100_000
    a, b = code_arrays(4 * lim + 1)
    ks = np.arange(1, lim + 1)
    odd = ks[ks % 2 == 1]
    even = ks[ks % 2 == 0]
    assert np.all(a[2 * odd] == 1 + 2 * b[odd]) and np.all(b[2 * odd] == a[odd]), "2k rule fails, k odd"
    assert np.all(a[4 * odd] == 2 * a[odd]) and np.all(b[4 * odd] == 1 + 2 * b[odd]), "4k rule fails, k odd"
    assert np.all(a[2 * even] == 2 * b[even]) and np.all(b[2 * even] == a[even]), "2k rule fails, k even"
    assert np.all(a[4 * even] == 2 * a[even]) and np.all(b[4 * even] == 2 * b[even]), "4k rule fails, k even"
    return "k<=1e5, both parities"


@_claim("h-subadditive", "codes")
def _h_subadditive(cfg: VerifyConfig) -> str:
    lim = 4096
    a, b = code_arrays(2 * lim + 1)
    H = a + b
    ls = np.arange(lim + 1)
    hl = H[ls]
    for k in range(lim + 1):
        s = H[k + ls]
        if k & 1:
            oddl = (ls & 1) == 1
            assert np.all(s[oddl] <= h(k) + hl[oddl] + 1), f"two-odd bound fails near k={k}"
            eq = oddl & (s == h(k) + hl + 1)
            if eq.any():
                assert k % 4 == 1 and np.all(ls[eq] % 4 == 1), (
                    f"equality without 1-mod-4 at k={k}"
                )
            rest = ~oddl
            assert np.all(s[rest] <= h(k) + hl[rest]), f"mixed bound fails near k={k}"
        else:
            assert np.all(s <= h(k) + hl), f"even bound fails near k={k}"
    return "k,l<=4096 exhaustive"


@_claim("h-increments", "codes")
def _h_increments(cfg: VerifyConfig) -> str:
    lim = 1_000_000
    # h < 2^11 below 2^20, so int16 holds it, and h(k+i) is a view of H
    H = np.add(*code_arrays(lim + 5)).astype(np.int16)
    h0, h1, h2, h3, h4 = (H[i : i + lim + 1] for i in range(5))
    ks = np.arange(lim + 1)
    even = (ks & 1) == 0
    assert np.all(h1[even] == h0[even]), "h(k+1) != h(k) for even k"
    assert np.all(h1[~even] <= h0[~even] + 1), "h(k+1) bound fails for odd k"
    low = (ks & 3) < 2
    assert np.all(h2[low] == h0[low] + 1), "h(k+2) != h(k)+1 for k=0,1 mod 4"
    assert np.all(h2[~low] <= h0[~low]), "h(k+2) bound fails for k=2,3 mod 4"
    assert np.all(h3 <= h0 + 1), "h(k+3) bound fails"
    assert np.all(h4 <= h0 + 1), "h(k+4) bound fails"
    return "k<=1e6"


@_claim("h-disjoint-support", "codes")
def _h_disjoint_support(cfg: VerifyConfig) -> str:
    lim = 2048
    a, b = code_arrays(2 * lim + 1)
    H = a + b
    ls = np.arange(lim + 1)
    for k in range(lim + 1):
        disjoint = (ls & (k & ~1)) == 0
        s = H[k + ls]
        both_one = (k % 4 == 1) & (ls % 4 == 1)
        not_both_odd = ((k & 1) == 0) | ((ls & 1) == 0)
        sel = disjoint & not_both_odd
        assert np.all(s[sel] == H[k] + H[ls][sel]), f"disjoint additivity fails near k={k}"
        sel = disjoint & both_one
        assert np.all(s[sel] == H[k] + H[ls][sel] + 1), f"disjoint +1 case fails near k={k}"
    return "k,l<=2048 exhaustive"


def _random_sparse_pure(rng: random.Random, max_deg: int) -> DeltaPoly:
    parity = rng.randint(0, 1)
    mask = 0
    for _ in range(rng.randint(1, 6)):
        e = rng.randint(0, max_deg - 1) & ~1 | parity
        mask |= 1 << e
    return DeltaPoly(mask)


@_claim("dominant-product", "codes")
def _dominant_product(cfg: VerifyConfig) -> str:
    # one seeded pool with its dominant exponents read once: 1872 of its pairs are admissible
    pool_size = 600
    rng = random.Random(0xD0)
    pool = [_random_sparse_pure(rng, 512) for _ in range(pool_size)]
    done = 0
    for (P, d1), (Q, e1) in combinations([(P, dominant_exponent(P)) for P in pool], 2):
        if (d1 & e1 & ~1) != 0:
            continue
        if (d1 & 1) and (e1 & 1) and not (d1 % 4 == 1 and e1 % 4 == 1):
            continue
        assert dominant_exponent(P * Q) == d1 + e1, (
            f"dominant product fails for {d1}, {e1}"
        )
        done += 1
        if done == 1000:
            return f"1000 admissible pairs from a pool of {pool_size} random forms, deg<=512"
    raise AssertionError(f"only {done} admissible pairs in a pool of {pool_size}")


@_claim("h-product-bound", "codes")
def _h_product_bound(cfg: VerifyConfig) -> str:
    rng = random.Random(0xB0)
    for _ in range(1000):
        P = DeltaPoly(_random_pure_mask(rng, 512, rng.random() < 0.5))
        Q = DeltaPoly(_random_pure_mask(rng, 512, rng.random() < 0.5))
        eps = 1 if P.parity_class() is Q.parity_class() is Parity.ODD else 0
        assert h_poly(P * Q) <= h_poly(P) + h_poly(Q) + eps, "product bound fails"
    return "1000 random pairs, deg<=512"


@_claim("h-fourth-power", "codes")
def _h_fourth_power(cfg: VerifyConfig) -> str:
    rng = random.Random(0xF4)
    for _ in range(1000):
        odd = rng.random() < 0.5
        P = DeltaPoly(_random_pure_mask(rng, 512, odd))
        want = 2 * h_poly(P) + (1 if odd else 0)
        assert h_poly(P.frobenius(2)) == want, "fourth-power rule fails"
    return "1000 random parity-pure polynomials"


@_claim("order-shift-regression", "codes")
def _order_shift_regression(cfg: VerifyConfig) -> str:
    # domination is not translation invariant: 2 < 4 but 4+2 > 4+4
    assert dominates(2, 4) == -1
    assert dominates(6, 8) == 1
    try:
        dominates(2, 3)
    except ParityMismatch:
        pass
    else:
        raise AssertionError("parity mismatch accepted")
    return "a=4, k=2, l=4"


@_claim("code-bijection", "codes")
def _code_bijection(cfg: VerifyConfig) -> str:
    for k in range(10_001):
        assert decode(code(k), k & 1) == k, f"bijection fails at k={k}"
    return "k<=1e4"


@_claim("h-prefix-gap", "codes")
def _h_prefix_gap(cfg: VerifyConfig) -> str:
    for bb in range(1, 31):
        cap_H(bb)
    return "b<=30"


# ---------------------------------------------------------------------------
# shift suite


@lru_cache(maxsize=2)
def _shift_images(cp: CharPoly, nmax: int) -> list[DeltaPoly]:
    """The T_p images, p = 3 or 5, that the three shift claims read at n <= nmax.

    One list per relation, streamed once to the longest any claim reads: the
    identities to 2*4^nmax + 303 (T_3) or + 305 (T_5), the special values to
    2*4^nmax + 6.  It is keyed on the relation itself, like ``fast``'s
    stores, so a corrupted F_p gets its own list; the last two are kept.
    """
    return hecke_fast_range(cp, 2 * 4**nmax + (303 if cp.p == 3 else 305))


@_claim("shift3-identities", "shift")
def _shift3_identities(cfg: VerifyConfig) -> str:
    nmax = cfg.shift_nmax
    cp3 = cached_charpoly(3)
    table = _shift_images(cp3, nmax)
    for nn in range(nmax + 1):
        for k in range(301):
            structural.check_shift3(nn, k, cp3, table)
    return f"n<={nmax}, k<=300"


@_claim("shift5-identities", "shift")
def _shift5_identities(cfg: VerifyConfig) -> str:
    nmax = cfg.shift_nmax
    cp5 = cached_charpoly(5)
    table = _shift_images(cp5, nmax)
    for nn in range(nmax + 1):
        for k in range(301):
            structural.check_shift5(nn, k, cp5, table)
    return f"n<={nmax}, k<=300"


@_claim("shift-special-values", "shift")
def _shift_special_values(cfg: VerifyConfig) -> str:
    nmax = cfg.shift_nmax
    cp3, cp5 = cached_charpoly(3), cached_charpoly(5)
    t3 = _shift_images(cp3, nmax)
    t5 = _shift_images(cp5, nmax)
    for nn in range(nmax + 1):
        structural.check_corollary_values(nn, cp3, cp5, t3, t5)
    return f"n<={nmax}"


@_claim("q-family-structure", "shift")
def _q_family_structure(cfg: VerifyConfig) -> str:
    for nn in range(1, 9):
        q = structural.q_poly(nn)
        q2 = q.square()
        assert q.parity_class() is Parity.EVEN and q2.parity_class() is Parity.EVEN
        assert dominant_exponent(q) == 4**nn, f"dominant exponent fails at n={nn}"
        assert dominant_exponent(q2) == 2 * 4**nn
        assert h_poly(q) == 1 << (nn - 1) and h_poly(q2) == 1 << nn
    return "n<=8"


@_claim("uvwy-family-structure", "shift")
def _uvwy_family_structure(cfg: VerifyConfig) -> str:
    for nn in range(2, 9):
        an = structural.a_seq(nn)
        u, v = structural.u_poly(nn), structural.v_poly(nn)
        w, y = structural.w_poly(nn), structural.y_poly(nn)
        assert u.parity_class() is Parity.EVEN and u.degree == an - 1
        assert dominant_exponent(u) == an - 1 and h_poly(u) == (1 << (nn - 1)) - 1
        assert v.parity_class() is Parity.ODD and v.degree == an - 2
        assert dominant_exponent(v) == an - 2 and h_poly(v) == (1 << (nn - 1)) - 1
        assert w.parity_class() is Parity.EVEN and w.degree == 4**nn
        assert dominant_exponent(w) == 4**nn and h_poly(w) == 1 << (nn - 1)
        assert y.parity_class() is Parity.EVEN and y.degree == 2 * 4**nn
        assert dominant_exponent(y) == 2 * 4**nn and h_poly(y) == 1 << nn
    return "2<=n<=8"


# ---------------------------------------------------------------------------
# bounds suite


def _bounds_claim(check: Callable[[int], object], *names: str) -> str:
    """Check the named ``_BOUNDS`` on the codes of every odd k <= 1e6, and
    ``check`` (their scalar form) on every odd k < 4096 and at every tight point."""
    lim = 1_000_000
    ks = np.arange(1, lim + 1, 2, dtype=np.int64)
    a, b = (x[1::2] for x in code_arrays(lim + 1))
    tight_points = set()
    for name in names:
        bound = _BOUNDS[name]
        slack = bound.slack(bound.value(a, b), ks)
        assert np.all(slack >= 0), f"{name} bound fails"
        tight = bound.tight(lim)
        assert set(ks[slack == 0].tolist()) == tight, f"{name} tightness set differs"
        tight_points |= tight
    for k in [*range(1, 4096, 2), *tight_points]:
        check(k)
    return "odd k<=1e6 (vector) + k<4096 (scalar)"


@_claim("g-two-sided-bounds", "bounds")
def _g_two_sided_bounds(cfg: VerifyConfig) -> str:
    return _bounds_claim(check_bounds_g, "lower", "upper")


@_claim("n3-upper-bound", "bounds")
def _n3_upper_bound(cfg: VerifyConfig) -> str:
    return _bounds_claim(check_bounds_n3, "n3")


@_claim("n5-upper-bound", "bounds")
def _n5_upper_bound(cfg: VerifyConfig) -> str:
    return _bounds_claim(check_bounds_n5, "n5")


# ---------------------------------------------------------------------------
# theorem suite


def _structure_sweep_t3(kmax: int) -> None:
    for k, (ak, bk), dom in _image_codes(3, kmax):
        hk = ak + bk
        if dom is None:
            assert not (k & 1 and ak >= 1), f"odd image vanishes at k={k}"
            assert not (k % 4 == 2 and bk >= 1), f"2-mod-4 image vanishes at k={k}"
            continue
        hp = sum(dom)
        assert hp <= hk - 1, f"h drop fails at k={k}"
        if k % 4 == 0:
            assert hp <= hk - 2, f"multiple-of-4 drop fails at k={k}"
        if k % 4 == 2 and bk == 0:
            assert hp <= hk - 3, f"2-mod-4 drop fails at k={k}"
        want_par = (hk + (1 if k % 4 else 0)) & 1
        assert hp & 1 == want_par, f"image parity fails at k={k}"
        if k & 1 and ak >= 1:
            assert hp == hk - 1, f"odd-case h value fails at k={k}"
            assert dom == (ak - 1, bk), f"odd-case code fails at k={k}"
        elif k % 4 == 2 and bk >= 1:
            assert hp == hk - 1, f"2-mod-4 h value fails at k={k}"
            assert dom == (ak, bk - 1), f"2-mod-4 code fails at k={k}"


def _structure_sweep_t5(kmax: int) -> None:
    for k, (ak, bk), dom in _image_codes(5, kmax):
        hk = ak + bk
        if dom is None:
            assert not (k & 1 and bk >= 1), f"odd image vanishes at k={k}"
            continue
        hp = sum(dom)
        assert hp <= hk - 1, f"h drop fails at k={k}"
        if k & 1 and bk == 0:
            assert hp <= hk - 3, f"odd zero-n5 drop fails at k={k}"
        if k & 1 == 0:
            assert hp <= hk - 2, f"even drop fails at k={k}"
        assert (hp - hk - k) & 1 == 0, f"image parity fails at k={k}"
        if k & 1 and bk >= 1:
            assert hp == hk - 1, f"odd-case h value fails at k={k}"
            assert dom == (ak, bk - 1), f"odd-case code fails at k={k}"


@_claim("t3-image-structure", "theorem")
def _t3_image_structure(cfg: VerifyConfig) -> str:
    _structure_sweep_t3(cfg.structure_kmax)
    return f"k<={cfg.structure_kmax}"


@_claim("t5-image-structure", "theorem")
def _t5_image_structure(cfg: VerifyConfig) -> str:
    _structure_sweep_t5(cfg.structure_kmax)
    return f"k<={cfg.structure_kmax}"


@_claim("frobenius-doubling", "theorem")
def _frobenius_doubling(cfg: VerifyConfig) -> str:
    """T_p(Delta^(2k)) = T_p(Delta^k)^2 on the naive route: a check of the operator.

    On the fast route every even image is an odd one squared, and N_(2k) =
    N_k^2 holds for the power sums of any monic relation.  2k runs to
    max(200, p + 34), the powers ``naive-fast-agree`` compares.
    """
    for p in _checked_primes(cfg.pmax):
        naive = _naive_monomial_range(p, max(200, p + 34))
        for k in range((len(naive) + 1) // 2):
            assert naive[2 * k] == naive[k].square(), f"doubling fails at p={p}, k={k}"
    krange = "2k<=200" if cfg.pmax + 34 <= 200 else "2k<=max(200,p+34)"
    return f"p<={cfg.pmax}, naive route, {krange}"


@_claim("theta-vanishing", "theorem")
def _theta_vanishing(cfg: VerifyConfig) -> str:
    vmax = 5
    k3 = [1 + (1 << (2 * v + 2)) for v in range(vmax + 1)]
    table3 = hecke_fast_range(cached_charpoly(3), max(k3))
    for k in k3:
        assert not table3[k], f"theta image nonzero at p=3, k={k}"
    k5 = [1 + (1 << (2 * v + 1)) for v in range(vmax + 1)]
    k5 += [(1 + (1 << (2 * v + 1))) // 3 for v in range(vmax + 1)]
    table5 = hecke_fast_range(cached_charpoly(5), max(k5))
    for k in k5:
        assert not table5[k], f"theta image nonzero at p=5, k={k}"
    return f"v<={vmax}"


def _witness_tables(deg: int) -> dict[int, ImageTable]:
    """The stored T_3 and T_5 tables (``shared_image_table``) reaching ``deg``.

    The claims below pass the largest odd exponent of their random forms, one
    below their even degree bound; ``apply_witness`` reads the same tables.
    """
    return {p: shared_image_table(cached_charpoly(p), deg) for p in (3, 5)}


@_claim("witness-chain", "theorem")
def _witness_chain(cfg: VerifyConfig) -> str:
    kmax = 1023
    for (k, ck, dom3), (_, _, dom5) in zip(_image_codes(3, kmax), _image_codes(5, kmax)):
        if not k & 1:
            continue
        assert apply_witness(monomial(k)) == monomial(1), f"witness fails at k={k}"
        for p, dom in ((3, dom3), (5, dom5)):
            assert dom is None or sum(dom) <= sum(ck) - 1, f"h decrement fails at p={p}, k={k}"
    return f"odd k<={kmax}"


@_claim("h-decrement", "theorem")
def _h_decrement(cfg: VerifyConfig) -> str:
    rng = random.Random(0x3D)
    deg = 2048
    tables = _witness_tables(deg - 1)
    for _ in range(500):
        f = DeltaPoly(_random_pure_mask(rng, deg, True))
        for p in (3, 5):
            img = DeltaPoly(tables[p].apply(f.mask))
            assert h_poly(img) <= h_poly(f) - 1, f"h decrement fails at p={p}"
    return "500 random odd forms, deg<=2048"


@_claim("dominant-code-decrement", "theorem")
def _dominant_code_decrement(cfg: VerifyConfig) -> str:
    rng = random.Random(0xDC)
    deg = 2048
    tables = _witness_tables(deg - 1)
    hits3 = hits5 = 0
    for _ in range(400):
        f = DeltaPoly(_random_pure_mask(rng, deg, True))
        m1 = dominant_exponent(f)
        c = code(m1)
        if c.n3 >= 1:
            img = DeltaPoly(tables[3].apply(f.mask))
            assert img, "T3 image vanishes despite n3 >= 1"
            assert code(dominant_exponent(img)) == (c.n3 - 1, c.n5), "T3 code fails"
            hits3 += 1
        if c.n5 >= 1:
            img = DeltaPoly(tables[5].apply(f.mask))
            assert img, "T5 image vanishes despite n5 >= 1"
            assert code(dominant_exponent(img)) == (c.n3, c.n5 - 1), "T5 code fails"
            hits5 += 1
    assert hits3 >= 50 and hits5 >= 50, "insufficient coverage"
    return "400 random odd forms, deg<=2048"


@_claim("delta-kernel", "theorem")
def _delta_kernel(cfg: VerifyConfig) -> str:
    rng = random.Random(0x15)
    deg = 1024
    tables = _witness_tables(deg - 1)
    assert tables[3].apply(2) == 0 and tables[5].apply(2) == 0
    for _ in range(500):
        f = _random_pure_mask(rng, deg, True)
        if f == 2:
            continue
        assert tables[3].apply(f) or tables[5].apply(f), (
            "a form other than the generator is killed by both operators"
        )
    return "500 random odd forms, deg<=1024"


@_claim("g-monotone-under-hecke", "theorem")
def _g_monotone_under_hecke(cfg: VerifyConfig) -> str:
    rng = random.Random(0x91)
    deg = 512
    for p in (3, 5, 7, 11, 13):
        table = image_table(cached_charpoly(p), deg)
        for _ in range(100):
            f = _random_form(rng, deg)
            img = DeltaPoly(table.apply(f.mask))
            assert g_general(f).g >= g_general(img).g + 1, f"monotonicity fails at p={p}"
    return "p in {3,5,7,11,13}, 100 random forms each"


@_claim("pm1-double-decrement", "theorem")
def _pm1_double_decrement(cfg: VerifyConfig) -> str:
    rng = random.Random(0x51)
    deg = 199
    for p in (7, 17, 23, 31):
        table = image_table(cached_charpoly(p), deg)
        for k in range(1, 200, 2):
            img = DeltaPoly(table.apply(1 << k))
            assert g_general(img).g <= h(k) - 1, f"double decrement fails at p={p}, k={k}"
        for _ in range(200):
            f = DeltaPoly(_random_pure_mask(rng, deg, True))
            img = DeltaPoly(table.apply(f.mask))
            assert g_general(img).g <= g_general(f).g - 2, f"double decrement fails at p={p}"
    return "p in {7,17,23,31}, odd k<=199 + 200 random forms"


@_claim("g-degree-bound", "theorem")
def _g_degree_bound(cfg: VerifyConfig) -> str:
    rng = random.Random(0x6B)
    for _ in range(1000):
        f = _random_form(rng, 4096)
        d = f.degree
        g = g_general(f).g
        assert 4 * g * g < 9 * d, f"degree bound fails at degree {d}"
    return "1000 random forms, deg<=4096"


@_claim("g-vs-bruteforce", "theorem")
def _g_vs_bruteforce(cfg: VerifyConfig) -> str:
    primes = (3, 5, 7, 11, 13)
    for k in range(1, 64, 2):
        assert g_bruteforce(monomial(k), primes) == h(k) + 1, f"oracle splits at k={k}"
    rng = random.Random(0x6F)
    for _ in range(200):
        f = DeltaPoly(_random_pure_mask(rng, 63, True))
        assert g_bruteforce(f, primes) == h_poly(f) + 1, "oracle splits on a random form"
    return "odd k<=63 + 200 random odd forms"


@_claim("triangular-nilpotent", "theorem")
def _triangular_nilpotent(cfg: VerifyConfig) -> str:
    K = 99
    primes = [*odd_primes_up_to(31), 41, 73, 89, 97]
    for p in primes:
        mat = hecke_matrix(p, K)
        assert mat.is_strictly_lower_triangular(), f"matrix not triangular at p={p}"
    return f"p in {{3..31,41,73,89,97}}, K={K}"


SUITES["all"] = sum(SUITES.values(), ())


def run_suite(suite: str, cfg: VerifyConfig | None = None) -> VerificationReport:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    cfg = cfg or VerifyConfig()
    report = VerificationReport()
    for claim_id in SUITES[suite]:
        if not __debug__:
            detail = "python -O strips the assert statements, so the claim cannot be checked"
            report.claims.append(ClaimResult(claim_id, "-", False, 0.0, detail))
            continue
        fn = _REGISTRY[claim_id]
        start = time.perf_counter()
        try:
            range_str = fn(cfg)
            ok, detail = True, ""
        except (AssertionError, Hecke2Error) as exc:
            range_str, ok, detail = "-", False, str(exc)
        ms = (time.perf_counter() - start) * 1000
        report.claims.append(ClaimResult(claim_id, range_str, ok, ms, detail))
    return report
