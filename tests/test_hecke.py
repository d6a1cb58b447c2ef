import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest

from hecke2.deltapoly import ONE, ZERO, _SPLIT_DEGREE, DeltaPoly, from_series, monomial, to_series
from hecke2.errors import (
    BadK,
    BadResidue,
    CacheFormatError,
    NotPrime,
    RankDeficient,
    SingularSystem,
)
from hecke2.gf2series import (
    _BYTEWISE_STR_LIMIT,
    _DOUBLING_LOOP_LIMIT,
    BitSeries,
    bit_positions,
    clmul,
    delta,
    delta_powers,
    one,
    pack8,
    spread8,
    spread_bits,
    stride_bits,
)
from hecke2 import fast, gf2series, naive, relation
from hecke2.fast import hecke_fast, hecke_fast_range, image_table, iter_hecke_fast, shared_image_table
from hecke2.naive import _naive_monomial_range, hecke_matrix, hecke_naive, hecke_naive_series, prop1_closed_form
from hecke2.newton import charpoly_via_newton
from hecke2.primes import odd_primes_up_to
from hecke2.relation import (
    CharPoly,
    cached_charpoly,
    charpoly_from_text,
    charpoly_to_text,
    compute_charpoly,
    relation_residual,
    structure_violations,
)
from helpers import delta_qpow, poly, sigma1


F3 = CharPoly(3, (ZERO, ZERO, poly(1), poly(4)))
F5 = CharPoly(5, (ZERO, poly(2), ZERO, poly(4), poly(1), poly(6)))
# golden fixture, frozen from the power-sum derivation
F7 = CharPoly(7, (ZERO, ZERO, ZERO, ZERO, ZERO, poly(2), poly(1), poly(8)))


def test_naive_series_kills_delta():
    for p in odd_primes_up_to(100):
        img = hecke_naive_series(delta(100 * p + 1), p)
        assert img.is_zero(), p


def test_naive_series_cube_to_delta():
    cube = to_series(poly(3), 91)
    assert hecke_naive_series(cube, 3) == delta(31)


def test_naive_series_kills_constants():
    assert hecke_naive_series(one(22), 7).is_zero()


def test_naive_series_precision():
    img = hecke_naive_series(BitSeries(0, 61), 3)
    assert img.precision == 21


def per_bit_naive_series(f: BitSeries, p: int) -> BitSeries:
    """The per-coefficient loop hecke_naive_series ran before its strided rule."""
    out_prec = (f.precision - 1) // p + 1
    out = 0
    for n in range(out_prec):
        b = (f.bits >> (p * n)) & 1
        if n % p == 0:
            b ^= (f.bits >> (n // p)) & 1
        out |= b << n
    return BitSeries(out, out_prec)


@pytest.mark.parametrize("p", [3, 5, 7, 31, 61, 257])
def test_naive_series_matches_per_bit_loop(p):
    rng = random.Random(p)
    precisions = (1, 2, p - 1, p, p + 1, 2 * p, 2 * p + 1, p * p, p * p + 1, 11347)
    for precision in precisions:
        for bits in (rng.getrandbits(precision), (1 << precision) - 1, 1 << (precision - 1)):
            f = BitSeries(bits, precision)
            assert hecke_naive_series(f, p) == per_bit_naive_series(f, p), precision


def test_naive_polynomial_examples():
    assert hecke_naive(poly(7), 7) == poly(1)
    assert hecke_naive(poly(7), 31) == ZERO
    assert hecke_naive(poly(9), 3) == poly(3)
    assert hecke_naive(poly(13), 5) == poly(9)
    assert hecke_naive(ZERO, 5) == ZERO
    assert hecke_naive(ONE, 5) == ZERO


def test_naive_rejects_composite():
    with pytest.raises(NotPrime):
        hecke_naive(poly(3), 9)


def test_compute_charpoly_small_values():
    assert compute_charpoly(3) == F3
    assert compute_charpoly(5) == F5
    assert compute_charpoly(7) == F7


def test_charpoly_rejects_composite():
    with pytest.raises(NotPrime):
        compute_charpoly(15)


def test_tiny_window_is_rank_deficient():
    with pytest.raises(RankDeficient):
        relation._solve_relation(3, 8)


def test_window_below_the_sturm_bound_is_rank_deficient():
    # every column of F_257 has its lowest row inside this window, at most
    # 257^2 + 1, so the deficiency shows only when an extra column peels to zero
    assert 257**2 + 1 < 66560 < 258**2 + 1
    with pytest.raises(RankDeficient, match="window 66560"):
        relation._solve_relation(257, 66560)


def _count_solves(monkeypatch):
    """Record the (p, window) of every ``_solve_relation`` call, raising or not."""
    calls = []
    solve = relation._solve_relation

    def counted(p, window):
        calls.append((p, window))
        return solve(p, window)

    monkeypatch.setattr(relation, "_solve_relation", counted)
    return calls


def test_default_window_matches_wide_window():
    for p in odd_primes_up_to(61):
        assert compute_charpoly(p) == relation._solve_relation(p, 4 * (p + 1) ** 2), p


@pytest.mark.parametrize("p", [3, 31, 181])
def test_default_window_takes_one_attempt(p, monkeypatch):
    calls = _count_solves(monkeypatch)
    compute_charpoly(p)
    assert calls == [(p, (p + 1) ** 2 + 1)]


@pytest.mark.parametrize("p", [3, 31])
def test_rank_deficient_solve_is_not_retried(p, monkeypatch):
    calls = []

    def deficient(q, window):
        calls.append((q, window))
        raise RankDeficient(f"window {window}")

    monkeypatch.setattr(relation, "_solve_relation", deficient)
    with pytest.raises(RankDeficient, match=f"window {(p + 1) ** 2 + 1}"):
        compute_charpoly(p)
    assert calls == [(p, (p + 1) ** 2 + 1)]


def _clmul_ladder(n, max_j):
    """Packed Delta^0..Delta^max_j below q^n (n a multiple of 8), one product per power."""
    cmask = (1 << (n // 8)) - 1
    dpack = pack8(delta(n).bits, 1)
    xpow = [1]
    for j in range(1, max_j + 1):
        cur = clmul(xpow[-1], dpack)
        if j % 8 == 0:
            cur <<= 1
        xpow.append(cur & cmask)
    return xpow


def _repeated_clmul(n, max_j):
    """Delta^0..Delta^max_j below q^n, unpacked, one product by Delta per power."""
    mask, dbits = (1 << n) - 1, delta(n).bits
    out = [1]
    for _ in range(max_j):
        out.append(clmul(out[-1], dbits) & mask)
    return out


@pytest.mark.parametrize("p", [3, 31, 101])
def test_packed_power_ladder_matches_product_ladder(p):
    max_j = max(17, p + 1)
    # the squaring step runs both with a class wrap (j/2 mod 8 >= 4) and without
    halves = {(j // 2) % 8 >= 4 for j in range(2, max_j + 1, 2)}
    assert halves == {False, True}
    # the relation solve's window and the residual windows, in packed form
    solve = 8 * -(-((p + 1) ** 2 + 1) // 8)
    for n in (8, 72, solve, 8 * (p + 1) ** 2, 16 * (p + 1) ** 2):
        assert delta_powers(n, max_j) == _clmul_ladder(n, max_j), n
    # windows off the multiples of 8, unpacked: the powers of Delta(q^p) below
    # ceil(n/p) for each window above, the naive power sums below p*k + 1, a
    # whole leaf of to_series at p = 31, and the tiny windows
    kmax = 3 * (p + 1)
    unpacked = [(-(-w // p), p + 1) for w in (solve, 8 * (p + 1) ** 2, 16 * (p + 1) ** 2)]
    unpacked += [(p * kmax + 1, kmax), (31 * _SPLIT_DEGREE + 1, _SPLIT_DEGREE - 1)]
    unpacked += [(n, k) for n in (1, 2, 7, 8, 9) for k in (0, 1)]
    for n, count in unpacked:
        got = [spread8(x, j % 8) for j, x in enumerate(delta_powers(n, count))]
        assert got == _repeated_clmul(n, count), (n, count)


def _first_wrong_answer(requests):
    """The first (n, kmax) whose ``delta_powers`` differs from the product ladders, or None."""
    for n, kmax in requests:
        got = delta_powers(n, kmax)
        if n % 8 == 0:
            ok = got == _clmul_ladder(n, kmax)
        else:
            ok = [spread8(x, j % 8) for j, x in enumerate(got)] == _repeated_clmul(n, kmax)
        if not ok:
            return n, kmax
    return None


def test_ladder_store_answers_as_a_fresh_build(monkeypatch):
    # an empty store, and the held ladder restored after the test
    monkeypatch.setattr(gf2series, "_ladder", (0, []))
    # n growing and shrinking, on and off the multiples of 8 and at the tiny
    # windows; kmax growing, shrinking and 0; then a seeded mix of both
    rng = random.Random(0x5107)
    requests = [(9, 0), (1, 0), (2, 1), (7, 7), (8, 3), (9, 12), (800, 20), (803, 5)]
    requests += [(5000, 40), (64, 40), (2, 0), (16001, 0), (16001, 60), (333, 61), (12000, 17)]
    requests += [(rng.randrange(1, 20000), rng.randrange(0, 80)) for _ in range(40)]
    # under a cap the widest requests exceed, then under the default one, the
    # store fits in the cap after every request
    for cap in (gf2series._ladder_bytes(8000, 40), 16 << 20):
        monkeypatch.setattr(gf2series, "_LADDER_BYTES", cap)
        for request in requests:
            assert _first_wrong_answer([request]) is None
            items = gf2series._ladder[1]
            assert sum(map(sys.getsizeof, items)) + 8 * len(items) <= cap
    held, items = gf2series._ladder
    assert held >= 16001 and len(items) >= 62

    # a caller that edits its answer in place, as flipped_ladder does, edits
    # its own list: the next answer, cut, held or the whole ladder, is unchanged
    for n, kmax in ((800, 20), (held, 20), (held, len(items) - 1)):
        out = delta_powers(n, kmax)
        out[3] ^= 1 << 2
        out[0] = 0
        out.append(5)
        assert _first_wrong_answer([(n, kmax)]) is None

    # a request over the cap is built, returned and not kept
    snapshot = list(items)
    monkeypatch.setattr(gf2series, "_LADDER_BYTES", gf2series._ladder_bytes(held, 1))
    assert _first_wrong_answer([(held + 8, 3), (held + 1, 90)]) is None
    assert gf2series._ladder == (held, snapshot) and gf2series._ladder[1] is items

    # the requests read the store itself: one flipped bit of a held item shows
    items[5] ^= 1 << 1  # q^13, cut away below q^14
    assert _first_wrong_answer(requests) == (800, 20)


def test_gf2_solve_pivot_elimination():
    def dependent(idx):
        return RankDeficient(f"column {idx}")

    def inconsistent():
        return SingularSystem("rhs")

    # columns 0b011, 0b110 span {0, 0b011, 0b101, 0b110}
    assert gf2series._gf2_solve([0b011, 0b110], 0b101, dependent, inconsistent) == 0b11
    assert gf2series._gf2_solve([0b011, 0b110], 0b110, dependent, inconsistent) == 0b10
    assert gf2series._gf2_solve([0b011, 0b110], 0, dependent, inconsistent) == 0
    with pytest.raises(RankDeficient, match="column 2"):
        gf2series._gf2_solve([0b011, 0b110, 0b101], 0b011, dependent, inconsistent)
    with pytest.raises(SingularSystem, match="rhs"):
        gf2series._gf2_solve([0b011, 0b110], 0b100, dependent, inconsistent)

    # rows 0, 2 and 3 are owned, each by a column with that lowest bit;
    # rows 1 and 4 have no owner
    owned = {0: 0b00101, 2: 0b01100, 3: 0b01000}
    reads = []

    def owner(row):
        reads.append(row)
        return owned.get(row)

    # 0b11101 = column 1 (0b10001) + the owner of row 2: bits 1 and n + 2
    assert gf2series._gf2_solve([0b00111, 0b10001], 0b11101, dependent, inconsistent, owner) == 0b10010
    # the owner of row 0 is read by both columns and the rhs, so it is built
    # each time and never held as a pivot; rows 1 and 4 become the pivots
    assert reads == [0, 1, 0, 2, 3, 4, 0, 3]
    # 0b01101 = 0b00101 + 0b01000: the owners reduce column 1 to zero
    with pytest.raises(RankDeficient, match="column 1"):
        gf2series._gf2_solve([0b00111, 0b01101], 0b00010, dependent, inconsistent, owner)
    # 0b10101 reduces by the owner of row 0 to 0b10000, whose row 4 is
    # neither owned nor a pivot
    with pytest.raises(SingularSystem, match="rhs"):
        gf2series._gf2_solve([0b00111], 0b10101, dependent, inconsistent, owner)


def test_newton_oracle_agrees():
    # every odd p <= 61, the range of the oracle workload
    for p in odd_primes_up_to(61):
        assert charpoly_via_newton(p) == compute_charpoly(p), p


def test_newton_oracle_satisfies_every_identity():
    # the oracle imposes the odd identities only, on odd naive sums and their
    # squares; its relation must satisfy the even ones too, on the naive sums
    for p in odd_primes_up_to(61):
        cp = charpoly_via_newton(p)
        rmax = 3 * (p + 1)
        sums = [s.mask for s in naive._naive_monomial_range(p, rmax)]
        for m in range(1, rmax + 1):
            acc = sums[m] ^ (cp.s[m - 1].mask if m & 1 and m <= p + 1 else 0)
            for i in range(1, min(m - 1, p + 1) + 1):
                acc ^= clmul(cp.s[i - 1].mask, sums[m - i])
            assert not acc, (p, m)


# p mod 8 runs over 3, 3, 5, 7, 1: every carry pattern of the packed rows
NEWTON_MUTATION_PRIMES = [3, 11, 13, 31, 41]


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES)
def test_both_derivations_reject_a_dropped_unknown(p, monkeypatch):
    # the packed solve and the Newton oracle share one elimination, read
    # through gf2series; an answer missing a chosen unknown must fail the
    # solve's residual and the oracle's closing pass, so the shared kernel
    # cannot make the two routes agree on a wrong F_p
    solve = gf2series._gf2_solve
    for drop in (lambda chosen: chosen & -chosen, lambda chosen: 1 << (chosen.bit_length() - 1)):

        def dropped(*args, drop=drop):
            chosen = solve(*args)
            return chosen ^ drop(chosen)

        monkeypatch.setattr(gf2series, "_gf2_solve", dropped)
        with pytest.raises(AssertionError, match="leaves a residual"):
            compute_charpoly(p)
        with pytest.raises(SingularSystem, match="does not close"):
            charpoly_via_newton(p)


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES)
def test_naive_monomial_range_doubles(p):
    # T_p(g^2) = T_p(g)^2 mod 2: the oracle reads the odd naive images only
    # and squares them into the even ones, so those are checked here
    rmax = 3 * (p + 1)
    sums = naive._naive_monomial_range(p, rmax)
    for k in range(rmax // 2 + 1):
        assert sums[2 * k] == DeltaPoly(spread_bits(sums[k].mask, 2)), (p, k)
    assert naive._naive_monomial_range(p, rmax - 1, step=2) == sums[1::2]


def corrupt_naive_sum(monkeypatch, m: int, mask: int) -> None:
    """Make ``naive._naive_monomial_range`` return ``mask`` as the image of Delta^m."""

    def corrupted(q, kmax, *, step=1):
        out = _naive_monomial_range(q, kmax, step=step)
        out[m // step] = DeltaPoly(mask)  # item i is image step*i + step - 1
        return out

    monkeypatch.setattr(naive, "_naive_monomial_range", corrupted)


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES)
def test_newton_oracle_rejects_corrupted_power_sum(p, monkeypatch):
    # one flipped bit of one odd N_m must leave the identities unsatisfiable
    sums = naive._naive_monomial_range(p, 3 * (p + 1))
    for m in (1, p, p + 2, 3 * (p + 1) - 1):
        c = (p * m) % 8
        # on the class, at m - 1, and the first bit of the class above degree m
        for e in (c, m - 1, 8 * ((m - c) // 8 + 1) + c):
            corrupt_naive_sum(monkeypatch, m, sums[m].mask ^ (1 << e))
            with pytest.raises(SingularSystem):
                charpoly_via_newton(p)


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES)
def test_newton_oracle_sees_a_bit_that_packing_folds(p, monkeypatch):
    # pack8 folds an off-class bit into the packed bit of its byte, so the
    # elimination cannot see it: only the closing check on the unpacked sums can
    sums = naive._naive_monomial_range(p, 3 * (p + 1))
    nonzero = [m for m in range(1, 3 * (p + 1), 2) if sums[m]]
    for m in (nonzero[0], nonzero[len(nonzero) // 2], nonzero[-1]):
        c = (p * m) % 8
        flipped = sums[m].mask ^ (1 << (sums[m].degree + 1))
        assert pack8(flipped, c) == pack8(sums[m].mask, c)
        corrupt_naive_sum(monkeypatch, m, flipped)
        with pytest.raises(SingularSystem, match=f"identity {m} does not close"):
            charpoly_via_newton(p)


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES)
def test_newton_oracle_rejects_corrupted_stream(p, monkeypatch):
    # the closing pass runs the packed recurrence for the odd images: a fault
    # in it must make the oracle raise, since every image it yields is
    # compared with the naive power sums
    clean = fast._packed_stream
    for k in (1, p + 2, 3 * (p + 1) - 1):

        def corrupted(cp, kmax, k=k):
            for j, image in enumerate(clean(cp, kmax)):
                yield image ^ (2 * j + 1 == k)

        monkeypatch.setattr(fast, "_packed_stream", corrupted)
        with pytest.raises(SingularSystem, match=f"identity {k} does not close"):
            charpoly_via_newton(p)


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES + [127, 257])
def test_naive_monomial_range_matches_from_series(p):
    # the range strides each image off its ladder item onto the class p*k mod 8
    # and peels that class alone; from_series expands, applies T_p and peels
    # all eight.  p mod 8 runs over 3, 5, 7 and 1, to max(200, p + 34), the
    # range naive-fast-agree reads, past the oracle's 3(p + 1) for p <= 41
    kmax = max(200, p + 34)
    want = [
        from_series(hecke_naive_series(to_series(monomial(k), p * k + 1), p), k)
        for k in range(kmax + 1)
    ]
    assert naive._naive_monomial_range(p, kmax) == want
    assert naive._naive_monomial_range(p, kmax, step=2) == want[1::2]


def flipped_ladder(monkeypatch, j: int, e: int) -> None:
    """Make ``naive.delta_powers`` return item j with the coefficient of q^e flipped."""
    clean = delta_powers

    def corrupted(n, kmax):
        out = clean(n, kmax)
        if j <= kmax:  # an item past the ladder is never read
            out[j] ^= 1 << (e >> 3)  # e lies on the class j mod 8
        return out

    monkeypatch.setattr(naive, "delta_powers", corrupted)


def check_ladder_flip(p: int, j: int, want: CharPoly, sums: list[DeltaPoly]) -> None:
    """The oracle under a flipped ladder item j: an odd item must make it raise.

    The oracle expands the odd powers only and peels images on the odd
    classes, so an even item is read, if at all, as a gap power, through its
    low terms.  Either way the relation it returns must be exact, and the flip
    must reach the naive images at step 1, the ones ``naive-fast-agree``
    compares with the fast route.
    """
    if j & 1:
        with pytest.raises(SingularSystem):
            charpoly_via_newton(p)
        return
    try:
        assert charpoly_via_newton(p) == want
    except SingularSystem:
        pass
    assert naive._naive_monomial_range(p, 3 * (p + 1)) != sums


@pytest.mark.parametrize("p", NEWTON_MUTATION_PRIMES)
def test_newton_oracle_rejects_a_corrupted_shared_ladder(p, monkeypatch):
    # the naive power sums expand each odd power from the ladder and peel the
    # images against its low items, so a wrong item must not cancel out: a
    # flip at a q-exponent 0 < e <= p*j divisible by p changes the naive
    # image of Delta^j (T_p kills q^0), on every item the peel reads as a
    # gap power, on the odd p+2 and 3(p+1) - 1 and on the even p+1 and
    # 3(p+1), at the lowest and highest such e
    rmax = 3 * (p + 1)
    want, sums = cached_charpoly(p), naive._naive_monomial_range(p, rmax)
    flips = []
    for j in sorted({*range(1, rmax // 8 + 1), p + 1, p + 2, rmax - 1, rmax}):
        es = [p * t for t in range(1, j + 1) if (p * t - j) % 8 == 0]
        if es:
            flips += [(j, e) for e in {es[0], es[-1]}]
    assert len(flips) >= 3
    for j, e in flips:
        flipped_ladder(monkeypatch, j, e)
        check_ladder_flip(p, j, want, sums)


@pytest.mark.parametrize("p", [11, 13, 31, 41])
def test_newton_oracle_rejects_a_corrupted_starting_power(p, monkeypatch):
    # Delta^1..Delta^7 start the peel of every class; a flip of their second
    # term q^(j+8) reaches the expansion only when p divides j + 8, so it is
    # the peel that must carry the fault into the power sums
    want, sums = cached_charpoly(p), naive._naive_monomial_range(p, 3 * (p + 1))
    for j in range(1, 8):
        flipped_ladder(monkeypatch, j, j + 8)
        check_ladder_flip(p, j, want, sums)


def test_peel_rejects_a_ladder_item_off_its_leading_term(monkeypatch):
    # a power that does not start at its own q-exponent would stall the
    # residual's valuation; the peel raises instead of looping.  The power
    # sums at step 1 read item 8 as a gap power, the oracle's odd ones do not
    for j, e in ((3, 3), (8, 0), (8, 8)):
        flipped_ladder(monkeypatch, j, e)
        with pytest.raises(ValueError, match=f"ladder item {j} does not start"):
            naive._naive_monomial_range(41, 3 * 42)
        if j & 1:
            with pytest.raises(ValueError, match=f"ladder item {j} does not start"):
                charpoly_via_newton(41)


def newton_initial_sums(cp: CharPoly) -> list[DeltaPoly]:
    """Power sums N_0..N_(p+1) rebuilt forward from the s_r by full-width products.

    Mod 2 the lone r*s_r term survives exactly at odd r, and N_0 counts the
    p+1 conjugate series, an even number, so N_0 = 0.
    """
    sums = [0]
    for r in range(1, cp.p + 2):
        acc = cp.s[r - 1].mask if r & 1 else 0
        for i in range(1, r):
            acc ^= clmul(cp.s[i - 1].mask, sums[r - i])
        sums.append(acc)
    return [DeltaPoly(m) for m in sums]


def test_newton_initial_sums():
    assert newton_initial_sums(F5) == [ZERO] * 5 + [poly(1), ZERO]
    assert newton_initial_sums(F3) == [ZERO] * 3 + [poly(1), ZERO]
    # the stream seeds itself: its first p+2 images are the forward sums
    for p in odd_primes_up_to(61):
        cp = cached_charpoly(p)
        assert hecke_fast_range(cp, p + 1) == newton_initial_sums(cp), p


def test_fast_range_table_values():
    t3 = hecke_fast_range(F3, 19)
    assert t3[15] == poly(13, 5)
    assert t3[19] == poly(17, 9)
    t5 = hecke_fast_range(F5, 21)
    assert t5[21] == poly(17, 9)


def test_fast_polynomial_dispatch():
    assert hecke_fast(poly(1), F5) == ZERO
    assert hecke_fast(poly(3, 5), F3) == poly(1)
    assert hecke_fast(ZERO, F3) == ZERO


def test_fast_matches_naive_on_random_forms():
    import random

    rng = random.Random(11)
    for p in (3, 5, 7, 11):
        cp = cached_charpoly(p)
        for _ in range(25):
            f = DeltaPoly(rng.getrandbits(120))
            assert hecke_fast(f, cp) == hecke_naive(f, p)


def test_image_degree_and_congruence_law():
    # images of odd powers drop degree by >= 2 and live in class pk mod 8
    for p in (3, 5, 7, 11, 29):
        table = hecke_fast_range(cached_charpoly(p), 151)
        for k in range(1, 152, 2):
            img = table[k]
            if img:
                assert img.degree <= k - 2, (p, k)
            assert all(e % 8 == (p * k) % 8 for e in img.exponents()), (p, k)


def unpacked_recurrence(cp: CharPoly, kmax: int) -> list[DeltaPoly]:
    """The full-width order-(p+1) recurrence, kept as the packed kernel's oracle."""
    out = [s.mask for s in newton_initial_sums(cp)[: kmax + 1]]
    for k in range(len(out), kmax + 1):
        acc = 0
        for r, sr in enumerate(cp.s, 1):
            for e in sr.exponents():
                acc ^= out[k - r] << e
        out.append(acc)
    return [DeltaPoly(m) for m in out]


def test_packed_kernel_matches_unpacked_recurrence_and_naive():
    for p in (3, 5, 7, 31, 257):
        cp = cached_charpoly(p)
        fast = hecke_fast_range(cp, 600)
        assert fast == _naive_monomial_range(p, 600), p
        assert list(iter_hecke_fast(cp, 600)) == fast, p
        table = image_table(cp, 600)
        assert [table.apply(1 << k) for k in range(601)] == [img.mask for img in fast], p


def test_packed_kernel_seeds_only():
    for p in odd_primes_up_to(61):
        cp = cached_charpoly(p)
        sums = newton_initial_sums(cp)
        assert hecke_fast_range(cp, 0) == [ZERO]
        assert list(iter_hecke_fast(cp, 0)) == [ZERO]
        for kmax in (1, p, p + 1):
            assert hecke_fast_range(cp, kmax) == sums[: kmax + 1], (p, kmax)
            table = image_table(cp, kmax)
            assert table.kmax == kmax and len(table.odd) == (kmax + 1) // 2
        # past the seeds only the recurrence runs
        kmax = 2 * p + 4
        assert hecke_fast_range(cp, kmax) == unpacked_recurrence(cp, kmax), p


@pytest.mark.parametrize("p", [3, 5, 7, 31, 127, 257])
def test_iter_hecke_fast_matches_the_unpacked_recurrence(p):
    # every image, even ones unpacked from their odd part squared, equals the
    # full-width recurrence, also for an in-class corruption of F_p
    for cp in (cached_charpoly(p), flip_in_class_bit(cached_charpoly(p), p)):
        assert list(iter_hecke_fast(cp, 600)) == unpacked_recurrence(cp, 600), cp.s[p - 1]


def test_iter_hecke_fast_draws_each_odd_image_once(monkeypatch):
    clean = fast._packed_stream
    drawn = []

    def counting(cp, kmax):
        for image in clean(cp, kmax):
            drawn.append(image)
            yield image

    monkeypatch.setattr(fast, "_packed_stream", counting)
    for p in (3, 7, 31):
        for kmax in (-1, 0, 1, 2, 3, 8, 2 * p + 1, 1000, 1001):
            drawn.clear()
            assert len(list(iter_hecke_fast(cached_charpoly(p), kmax))) == kmax + 1
            assert len(drawn) == (kmax + 1) // 2, (p, kmax)


def test_hecke_fast_on_every_exponent_class():
    # one exponent in each class mod 8, so all eight accumulators are used
    f = poly(8, 17, 26, 35, 44, 53, 62, 71, 400)
    for p in (3, 5, 7, 11):
        cp = cached_charpoly(p)
        want = unpacked_recurrence(cp, f.degree)
        acc = 0
        for e in f.exponents():
            acc ^= want[e].mask
        assert hecke_fast(f, cp) == DeltaPoly(acc) == hecke_naive(f, p), p
        assert image_table(cp, f.degree).apply(f.mask) == acc, p


def test_packed_kernel_rejects_off_class_relation():
    broken = CharPoly(3, (ZERO, ZERO, poly(2), poly(4)))
    with pytest.raises(BadResidue):
        hecke_fast_range(broken, 10)
    with pytest.raises(BadResidue):
        image_table(broken, 10)
    with pytest.raises(BadResidue):
        hecke_fast(poly(3, 8), broken)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 61])
def test_off_class_bits_fail_the_structure_check_and_the_stream(p):
    # one rule for the class of s_r: structure_violations names every s_r with
    # a bit off the class p*r mod 8, and the stream plan refuses the lowest
    cp = cached_charpoly(p)
    for rs in ([1], [2], [p // 2], [p + 1], [p + 1, 2, p // 2 + 2]):
        bad = cp
        for r in rs:
            bad = flip_bit(bad, r, (p * r + 1) % 8)
        named = [v for v in structure_violations(bad) if v.startswith("congruence")]
        assert named == [f"congruence class: s{r}" for r in sorted(rs)], (p, rs)
        message = f"s{min(rs)} of the relation at p={p} leaves its class mod 8"
        with pytest.raises(BadResidue, match=f"^{message}$"):
            image_table(bad, 5)
        with pytest.raises(BadResidue, match=f"^{message}$"):
            hecke_fast(monomial(1), bad)


def flip_in_class_bit(cp: CharPoly, r: int) -> CharPoly:
    """``cp`` with the bit one step above the class p*r mod 8 of s_r flipped."""
    s = list(cp.s)
    s[r - 1] = DeltaPoly(s[r - 1].mask ^ (1 << ((cp.p * r) % 8 + 8)))
    return CharPoly(cp.p, tuple(s))


@pytest.mark.parametrize("p", [*odd_primes_up_to(61), 127, 257])
def test_odd_stream_is_the_odd_part_of_the_full_stream(p):
    # the odd images obey the squared recurrence for every monic relation on
    # its classes, so an in-class corruption of F_p keeps the odd stream equal
    # to the odd part of the full-width recurrence
    for cp in (cached_charpoly(p), flip_in_class_bit(cached_charpoly(p), p)):
        full = [pack8(img.mask, p * k % 8) for k, img in enumerate(unpacked_recurrence(cp, 700))]
        for kmax in (0, 1, 2, p, 2 * p + 1, 2 * p + 2, 2 * p + 3, 700):
            odd = list(fast._packed_stream(cp, kmax))
            assert odd == full[1 : kmax + 1 : 2], (p, kmax)


@pytest.mark.parametrize("p", [*odd_primes_up_to(61), 127, 257])
def test_octet_tail_matches_the_full_stream_across_its_seam(p):
    # hecke_fast streams the odd images to 8(p+1) - 1 and carries the rest in
    # octets.  The step-8 recurrence holds for every monic relation on its
    # classes, so an in-class corruption of F_p must agree with the images
    # of its odd stream (iter_hecke_fast) as well.  At each degree t, Delta^t
    # and a 3-5 term form of mixed parity whose top odd part is t | 1: the odd
    # parts straddle the seam before the first tail octet H_(p+1), and reach
    # 4000 past it
    seam = 8 * (p + 1)
    rng = random.Random(p)
    forms = []
    for i, t in enumerate(seam + d for d in (-9, -1, 0, 1, 7, 8, 9, 4000)):
        lower = rng.sample(range(1, t | 1), 2 + i % 3)
        forms += [1 << t, sum(1 << e for e in lower) | 1 << (t | 1)]
    degree = max(forms).bit_length() - 1
    for cp in (cached_charpoly(p), flip_in_class_bit(cached_charpoly(p), p)):
        full = [img.mask for img in iter_hecke_fast(cp, degree)]
        for mask in forms:
            want = 0
            for k in bit_positions(mask):
                want ^= full[k]
            wrong = hecke_fast(DeltaPoly(mask), cp).mask ^ want
            # named by the form's degree and the lowest wrong exponent
            assert not wrong, (p, cp.s[p - 1], mask.bit_length() - 1, (wrong & -wrong).bit_length() - 1)


@pytest.mark.parametrize("p", [3, 7, 31, 61])
def test_image_table_matches_the_unpacked_recurrence_across_the_octet_seam(p):
    # image_table cuts its odd images from the octets: from the step-2 head
    # below 8(p+1) - 1 and the step-8 tail past it.  Each odd image is an
    # odd-exponent mask, bit v for Delta^(2v+1), and an off-class relation
    # raises before any octet is built
    seam = 8 * (p + 1)
    cp = cached_charpoly(p)
    rng = random.Random(p)
    want = unpacked_recurrence(cp, seam + 7)
    for kmax in (1, 7, seam - 9, seam - 1, seam + 1, seam + 7):
        table = image_table(cp, kmax)
        assert [table.apply(1 << k) for k in range(kmax + 1)] == [img.mask for img in want[: kmax + 1]], (p, kmax)
        assert table.odd == tuple(stride_bits(img.mask, 2, 1) for img in want[1 : kmax + 1 : 2])
        assert all(spread_bits(odd, 2) << 1 == img.mask for odd, img in zip(table.odd, want[1::2]))
        for _ in range(20):
            odd = rng.getrandbits((kmax + 1) // 2)
            image = table.apply(spread_bits(odd, 2) << 1)
            assert table.apply_odd(odd) == stride_bits(image, 2, 1), (p, kmax)
        with pytest.raises(BadResidue, match=f"^s1 of the relation at p={p} leaves its class mod 8$"):
            image_table(flip_bit(cp, 1, (p + 1) % 8), kmax)


def test_from_odd_matches_the_per_bit_spread_at_every_valuation():
    # bit u of an odd mask goes to 2^s (2u + 1).  Masks above 32 set bits take
    # the digit-string paths, on both sides of spread8's string limit
    rng = random.Random(26)
    for s in range(7):
        for nbits in (1, 30, 33, 200, _BYTEWISE_STR_LIMIT + 1, 3000):
            for acc in (0, rng.getrandbits(nbits), (1 << nbits) - 1, 1 << (nbits - 1)):
                want = sum(1 << ((2 * u + 1) << s) for u in bit_positions(acc))
                assert fast._from_odd(acc, s) == want, (s, nbits, acc.bit_count())


def test_every_2adic_valuation():
    # the images of Delta^(2^s m) are squared from the odd stream; the oracle
    # runs the full-width recurrence through every power
    forms = [
        DeltaPoly.from_exponents(m << s for m in (1, 3, 5, 7)) for s in range(11)
    ]
    forms.append(DeltaPoly.from_exponents([0, *(3 << s for s in range(11))]))
    for p in (3, 5, 7, 11):
        cp = cached_charpoly(p)
        want = unpacked_recurrence(cp, 7 << 10)
        table = image_table(cp, 7 << 10)
        for f in forms:
            acc = 0
            for e in f.exponents():
                acc ^= want[e].mask
                assert table.apply(1 << e) == want[e].mask, (p, e)
            assert hecke_fast(f, cp) == DeltaPoly(acc), (p, f.degree)
            assert table.apply(f.mask) == acc, (p, f.degree)
        assert hecke_fast(ONE, cp) == ZERO and table.apply(ONE.mask) == 0


@pytest.mark.parametrize("p", [3, 31])
def test_shared_applier_decodes_dense_accumulators(p, monkeypatch):
    # a dense form to degree 8191 whose exponents have 2-adic valuation 0 to
    # 3: each valuation's accumulator holds far more than the 32 set bits of
    # the per-bit spread, so every digit-string decode of _from_odd runs, the
    # spread8 one for s >= 2 included, for hecke_fast and the table alike
    rng = random.Random(8191)
    mask = sum(1 << e for e in range(1, 8191) if e & 15 and rng.getrandbits(1)) | 1 << 8191
    decoded = []
    clean = fast._from_odd

    def spy(acc, s):
        decoded.append((s, acc.bit_count()))
        return clean(acc, s)

    monkeypatch.setattr(fast, "_from_odd", spy)
    cp = cached_charpoly(p)
    want = 0
    for k, image in enumerate(iter_hecke_fast(cp, 8191)):
        if mask >> k & 1:
            want ^= image.mask
    assert hecke_fast(DeltaPoly(mask), cp).mask == want
    assert image_table(cp, 8191).apply(mask) == want
    assert sorted(s for s, _ in decoded) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert min(bits for _, bits in decoded) > _DOUBLING_LOOP_LIMIT, decoded


def test_shared_table_rounds_up_and_serves_smaller_requests(monkeypatch):
    monkeypatch.setattr(fast, "_shared_tables", {})
    with pytest.raises(ValueError):
        shared_image_table(F3, -1)
    rng = random.Random(16)
    for p in (3, 5, 7):
        cp = cached_charpoly(p)
        # a fresh store builds to the next 2^j - 1, and only a larger request regrows it
        assert [shared_image_table(cp, k).kmax for k in (0, 1, 2, 1023, 1024, 5, 2047)] == [
            0, 1, 3, 1023, 2047, 2047, 2047
        ]
        big = shared_image_table(cp, 2047)
        small = shared_image_table(cp, 100)
        assert small is big
        fresh = image_table(cp, 100)
        assert small.odd[: len(fresh.odd)] == fresh.odd, p
        for _ in range(20):
            mask = rng.getrandbits(101)
            assert small.apply(mask) == fresh.apply(mask), p


def test_a_relation_one_bit_apart_is_another_key(monkeypatch):
    store = {}
    monkeypatch.setattr(fast, "_shared_tables", store)
    true3 = cached_charpoly(3)
    # built separately, equal relations compare and hash equal, and a copy
    # made by replace starts with no hash of its own
    again = CharPoly(3, tuple(DeltaPoly.from_exponents(sr.exponents()) for sr in true3.s))
    assert again == true3 and hash(again) == hash(true3) == hash((3, true3.s))
    copy = replace(true3)
    assert copy._hash is None and copy == true3
    assert hash(copy) == copy._hash == hash(true3)
    assert fast._recurrence(again) is fast._recurrence(true3)
    assert shared_image_table(again, 63) is shared_image_table(true3, 63)
    # s_1 = X^3 at p=3 is on its class mod 8: one bit from F_3, its own entries
    s = list(true3.s)
    s[0] = DeltaPoly(s[0].mask ^ 1 << 3)
    flipped = CharPoly(3, tuple(s))
    assert flipped != true3
    assert fast._recurrence(flipped) is not fast._recurrence(true3)
    assert fast._recurrence(flipped).head(4) != fast._recurrence(true3).head(4)
    t_flipped, t_true = shared_image_table(flipped, 63), shared_image_table(true3, 63)
    assert t_flipped is not t_true and t_flipped.odd != t_true.odd
    assert list(store) == [flipped, true3]


def test_shared_store_holds_at_most_its_bound(monkeypatch):
    # after a build the store holds at most _SHARED_BYTES, dropping the least
    # recently used tables first, and never the table just asked for
    default = fast._SHARED_BYTES
    store = {}
    monkeypatch.setattr(fast, "_shared_tables", store)
    primes = odd_primes_up_to(61)
    size = {p: fast._table_bytes(image_table(cached_charpoly(p), 63)) for p in primes}
    budget = 3 * max(size.values())
    monkeypatch.setattr(fast, "_SHARED_BYTES", budget)

    def held():
        return [cp.p for cp in store]

    for i, p in enumerate(primes):
        shared_image_table(cached_charpoly(p), 50)
        # the longest run of the latest requests that fits the budget
        n = len(store)
        assert held() == primes[i + 1 - n : i + 1], p
        assert sum(map(fast._table_bytes, store.values())) <= budget
        assert n == i + 1 or sum(size[q] for q in primes[i - n : i + 1]) > budget
    assert 3 <= len(store) < len(primes)
    # a hit makes its relation the most recent, so it outlives the next build
    oldest = held()[0]
    shared_image_table(cached_charpoly(oldest), 10)
    assert held()[-1] == oldest
    shared_image_table(cached_charpoly(67), 10)
    assert held()[-2:] == [oldest, 67]
    # a table over the budget is kept alone, and a hit drops nothing
    big = shared_image_table(F3, 4095)
    assert fast._table_bytes(big) > budget and held() == [3]
    assert shared_image_table(F3, 100) is big and held() == [3]
    # the default budget keeps the T_3 and T_5 tables to degree 16383 together
    monkeypatch.setattr(fast, "_SHARED_BYTES", default)
    store.clear()
    t3, t5, again3, again5 = (shared_image_table(cached_charpoly(p), 16383) for p in (3, 5, 3, 5))
    assert held() == [3, 5] and again3 is t3 and again5 is t5


def test_image_table_rejects_powers_outside_it():
    # a table is an operator: it is read through apply and apply_odd only,
    # and the image of one power comes from the stream
    table = image_table(F3, 20)
    with pytest.raises(TypeError):
        table[18]
    with pytest.raises(TypeError):
        len(table)
    assert table.apply(1 << 18) == poly(6).mask
    with pytest.raises(IndexError):
        table.apply(1 << 21)
    assert table.apply(1 << 20) == hecke_naive(monomial(20), 3).mask
    # the odd step reads odd masks up to the table's top odd power, 19
    assert table.apply_odd(1 << 9) == stride_bits(table.apply(1 << 19), 2, 1)
    with pytest.raises(IndexError):
        table.apply_odd(1 << 10)
    with pytest.raises(ValueError):
        table.apply_odd(-1)
    # the set bits of a negative int never run out
    for mask in (-1, -6, -(1 << 30)):
        with pytest.raises(ValueError):
            table.apply(mask)


def single_steps(table, odd: int, n: int) -> int:
    """T^n on the odd mask ``odd`` by n steps of ``apply_odd``."""
    for _ in range(n):
        odd = table.apply_odd(odd)
    return odd


def sparse_odd_mask(rng: random.Random, kmax: int, terms: int) -> int:
    # ``terms`` odd powers, the top one Delta^kmax
    top = kmax >> 1
    return 1 << top | sum(1 << v for v in rng.sample(range(top), terms - 1))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kmax", [1023, 2047, 4095])
def test_power_rows_are_repeated_single_steps(p, kmax):
    # one step of level i is 2^i steps of apply_odd, every row held is the
    # single-step image of its own power, and power_steps yields the mask
    # after each set bit of n, highest first
    table = image_table(cached_charpoly(p), kmax)
    rng = random.Random(kmax + p)
    for i in range(1, 6):
        for _ in range(2):
            odd = sparse_odd_mask(rng, kmax, 24)
            assert list(table.power_steps(odd, 1 << i)) == [single_steps(table, odd, 1 << i)], i
    for i, rows in enumerate(table._levels, 1):
        assert rows, i
        for v in rng.sample(sorted(rows), min(30, len(rows))):
            assert rows[v] == single_steps(table, 1 << v, 1 << i), (i, v)
    for n in (0, 1, 6, 21, 63):
        odd = sparse_odd_mask(rng, kmax, 24)
        powers = [1 << i for i in reversed(bit_positions(n))]
        want = [single_steps(table, odd, sum(powers[: j + 1])) for j in range(len(powers))]
        assert list(table.power_steps(odd, n)) == want, n
    with pytest.raises(ValueError):
        list(table.power_steps(1, -1))
    with pytest.raises(IndexError):
        list(table.power_steps(1 << (kmax + 1) // 2, 1))


def test_an_odd_image_above_its_own_power_builds_no_power_row():
    # odd image v given a bit above Delta^(2v+1): the table builds no row,
    # and power_steps yields exactly the single steps of apply_odd
    clean = image_table(cached_charpoly(3), 1023)
    v = 255
    odd = list(clean.odd)
    odd[v] ^= 1 << (v + 1)
    table = replace(clean, odd=tuple(odd))
    rng = random.Random(12)
    for n in (2, 4, 31):
        for mask in (1 << v, 1 << v | sparse_odd_mask(rng, 1023, 24)):
            want = [single_steps(table, mask, j) for j in range(1, n + 1)]
            assert list(table.power_steps(mask, n)) == want, n
            assert want[0] != clean.apply_odd(mask)
            assert list(clean.power_steps(mask, n))[-1] == single_steps(clean, mask, n)
    assert clean._levels and clean._row_bytes > 0
    assert table._levels == [] and table._row_bytes == 0


def test_a_replaced_table_holds_no_power_rows():
    table = image_table(cached_charpoly(5), 1023)
    steps = list(table.power_steps(1 << 511, 31))
    assert table._levels and table._row_bytes > 0
    copy = replace(table, odd=table.odd)
    assert copy == table and copy._levels == [] and copy._row_bytes == 0
    assert list(copy.power_steps(1 << 511, 31)) == steps


def test_shared_store_counts_power_rows(monkeypatch):
    # _table_bytes counts the rows a table holds, and a hit brings the store
    # back under its bound, dropping the least recently used table whole
    store = {}
    monkeypatch.setattr(fast, "_shared_tables", store)
    cp3, cp5 = cached_charpoly(3), cached_charpoly(5)
    t3 = shared_image_table(cp3, 1023)
    t5 = shared_image_table(cp5, 1023)
    bare3 = fast._table_bytes(t3)
    monkeypatch.setattr(fast, "_SHARED_BYTES", bare3 + fast._table_bytes(t5))
    assert shared_image_table(cp5, 100) is t5 and list(store) == [cp3, cp5]
    list(t3.power_steps(1 << 511, 31))
    rows = [row for level in t3._levels for row in level.values()]
    assert rows
    assert fast._table_bytes(t3) == (
        bare3 + sum(map(sys.getsizeof, rows)) + sum(map(sys.getsizeof, t3._levels))
    )
    assert shared_image_table(cp5, 100) is t5 and list(store) == [cp5]


def test_power_rows_stop_at_their_bound(monkeypatch):
    # past _POWER_BYTES a table builds no row, and a step whose rows are not
    # all held runs as steps of the level below, with the same results
    monkeypatch.setattr(fast, "_POWER_BYTES", 20_000)
    table = image_table(cached_charpoly(5), 2047)
    rng = random.Random(11)
    for _ in range(2):
        odd = sparse_odd_mask(rng, 2047, 24)
        assert list(table.power_steps(odd, 31))[-1] == single_steps(table, odd, 31)
    held = table._row_bytes
    assert held > 20_000
    for _ in range(4):
        odd = sparse_odd_mask(rng, 2047, 24)
        assert list(table.power_steps(odd, 31))[-1] == single_steps(table, odd, 31)
    assert table._row_bytes == held


def test_image_table_applies_to_the_zero_form_in_a_fresh_process():
    # a fresh process has built none of the package's lazy caches, and the
    # empty form must still map to 0 there
    src = str(Path(fast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "from hecke2.fast import image_table\n"
        "from hecke2.relation import compute_charpoly\n"
        "print(image_table(compute_charpoly(3), 5).apply(0))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert (run.returncode, run.stdout) == (0, "0\n"), run.stderr


@pytest.fixture
def fresh_heads():
    # the relation records and their head octets start empty and are dropped
    # after the test, so a patched stream neither meets a head built before it
    # nor leaves one behind
    fast._recurrence.cache_clear()
    yield
    fast._recurrence.cache_clear()


def test_hecke_fast_streams_odd_powers_only(monkeypatch, fresh_heads):
    # T_p(Delta^d), with m the odd part of d, reads the head octets H_0..H_p
    # (the odd images to 8(p+1) - 1, from the step-2 stream) up to the one
    # holding m, and the octet loop carries the rest four at a time, in one
    # step per octet past H_p: max(0, (m >> 3) - p) steps.  The head is kept
    # per relation, so a call draws only the head octets past those an
    # earlier call drew, four images each, and 4(p+1) in all.  The even
    # images are squares, never streamed.  image_table runs the same octets
    # through every octet up to its kmax
    clean = fast._packed_stream
    drawn = []
    steps = []

    def counting(cp, kmax):
        for image in clean(cp, kmax):
            drawn.append(image)
            yield image

    class CountingWindow(deque):
        def append(self, octet):
            steps.append(octet)
            super().append(octet)

    monkeypatch.setattr(fast, "_packed_stream", counting)
    monkeypatch.setattr(fast, "deque", CountingWindow)
    for p in (3, 7, 31):
        cp = cached_charpoly(p)
        seam = 8 * (p + 1)
        held = 0  # head octets drawn so far
        for d in (1, 3, 99, 1001, 1000, 4096, seam - 9, seam - 1, seam + 1, seam + 7, seam + 9, 5 << 9):
            m = d >> ((d & -d).bit_length() - 1)
            reach = min(m >> 3, p) + 1
            drawn.clear()
            steps.clear()
            hecke_fast(DeltaPoly(1 << d), cp)
            assert len(drawn) == 4 * max(0, reach - held), (p, d)
            assert len(steps) == max(0, (m >> 3) - p), (p, d)
            held = max(held, reach)
        assert held == p + 1
    # the first call past the seam draws the whole head, and no call after it
    for p in (5, 13):
        for d in (8 * (p + 1) + 1, 1, 4001, 8 * (p + 1) - 1):
            drawn.clear()
            hecke_fast(DeltaPoly(1 << d), cached_charpoly(p))
            assert len(drawn) == (4 * (p + 1) if d == 8 * (p + 1) + 1 else 0), (p, d)
    # a table draws the head of a relation once, and each build runs its tail
    for draws in (4 * (11 + 1), 0):
        drawn.clear()
        steps.clear()
        image_table(cached_charpoly(11), 1000)
        assert len(drawn) == draws
        assert len(steps) == (1000 >> 3) - 11


@pytest.mark.parametrize("p", [7, 31])
def test_head_octets_are_keyed_on_the_relation(p, fresh_heads):
    # with F_p's head already held, a relation one in-class bit away gets a
    # head of its own: hecke_fast and image_table follow the flipped relation
    # on both sides of the seam
    cp = cached_charpoly(p)
    seam = 8 * (p + 1)
    top = seam + 40
    hecke_fast(monomial(seam + 1), cp)
    flipped = flip_in_class_bit(cp, p)
    want = unpacked_recurrence(flipped, top)
    assert want != unpacked_recurrence(cp, top)
    table = image_table(flipped, top)
    assert [table.apply(1 << k) for k in range(top + 1)] == [img.mask for img in want]
    for k in range(seam - 16, top + 1):
        assert hecke_fast(monomial(k), flipped) == want[k], (p, k)
    assert fast._recurrence.cache_info().currsize == 2


def test_octet_consumers_see_a_fault_in_the_head_stream(monkeypatch, fresh_heads):
    # one bit of the streamed image m, in the last head octet H_p, flipped
    # after the head cache is cleared: hecke_fast and image_table read it at
    # m, and the step-8 recurrence carries it past the seam
    p = 7
    cp = cached_charpoly(p)
    seam = 8 * (p + 1)
    m = seam - 3
    top = seam + 200
    want = [img.mask for img in iter_hecke_fast(cp, top)]
    clean = fast._packed_stream

    def flipped(cp, kmax):
        for j, packed in enumerate(clean(cp, kmax)):
            yield packed ^ (2 * j + 1 == m)

    monkeypatch.setattr(fast, "_packed_stream", flipped)
    fast._recurrence.cache_clear()
    fault = 1 << (p * m % 8)  # packed bit 0 is Delta^(p*m mod 8)
    assert hecke_fast(monomial(m), cp).mask == want[m] ^ fault
    table = image_table(cp, top)
    assert table.apply(1 << m) == want[m] ^ fault
    tail = [k for k in range(seam + 1, top + 1, 2) if table.apply(1 << k) != want[k]]
    assert tail and all(hecke_fast(monomial(k), cp).mask != want[k] for k in tail)


def test_hecke_fast_keeps_only_the_images_its_form_uses(monkeypatch):
    # the octets run to the largest odd part m of an exponent 2^s m, but only
    # the octets that hold the image of an odd part are kept, keyed m >> 3
    rng = random.Random(15)
    exps = {0}
    for s in range(16):
        exps.add(((1 << (16 - s)) - 1) << s)
        exps.add(rng.randrange(1, 1 << (16 - s), 2) << s)
    f = DeltaPoly.from_exponents(exps)
    clean = fast._odd_octets
    kept = []

    def capturing(cp, top, keep):
        octets = clean(cp, top, keep)
        kept.append(octets)
        return octets

    monkeypatch.setattr(fast, "_odd_octets", capturing)
    got = hecke_fast(f, F3)
    parts = {k >> ((k & -k).bit_length() - 1) for k in exps if k}
    assert f.degree == 65535 and len(kept) == 1
    assert set(kept[0]) == {m >> 3 for m in parts}
    # the images of iter_hecke_fast, without octets, at the exponents of f
    want = 0
    for k, img in enumerate(iter_hecke_fast(F3, f.degree)):
        if k in exps:
            want ^= img.mask
    assert got == DeltaPoly(want)


@pytest.mark.parametrize(
    "nbits", [0, 1, _BYTEWISE_STR_LIMIT - 1, _BYTEWISE_STR_LIMIT, _BYTEWISE_STR_LIMIT + 1, 5000]
)
def test_spread8_pack8_round_trip(nbits):
    import random

    rng = random.Random(nbits)
    packed = rng.getrandbits(nbits) | (1 << nbits >> 1) if nbits else 0
    assert packed.bit_length() == nbits
    spread = spread8(packed)
    want = 0
    for m in range(nbits):
        want |= ((packed >> m) & 1) << (8 * m)
    assert spread == want
    assert pack8(spread) == packed
    for offset in range(8):
        assert spread8(packed, offset) == spread << offset
        assert pack8(spread << offset, offset) == packed
    # a nonzero byte packs to a set bit, as numpy's packbits does
    assert pack8(spread * 3) == packed


def trace_route_oracle(p: int, kmax: int) -> list[DeltaPoly]:
    """Traces of powers of the multiplication-by-y matrix over the ring.

    In the rank-(p+1) quotient by the bivariate relation, multiplying by y
    has a companion-style matrix with polynomial entries; the trace of its
    k-th power must reproduce the image of the k-th power of the generator.
    """
    cp = cached_charpoly(p)
    n = p + 1
    companion = [[ZERO] * n for _ in range(n)]
    for j in range(n - 1):
        companion[j + 1][j] = ONE
    for r in range(1, n + 1):
        companion[n - r][n - 1] = cp.s[r - 1]

    def mat_mul(a, b):
        return [
            [
                sum((a[i][l] * b[l][j] for l in range(n)), ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]

    out = []
    power = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(kmax + 1):
        out.append(sum((power[i][i] for i in range(n)), ZERO))
        power = mat_mul(power, companion)
    return out


def test_trace_route_matches_fast_range():
    for p in (3, 5, 7):
        assert trace_route_oracle(p, 40) == hecke_fast_range(cached_charpoly(p), 40)


def test_structure_violations_detects_corruption():
    assert structure_violations(F5) == []
    broken = CharPoly(5, (ZERO, poly(3), ZERO, poly(4), poly(1), poly(6)))
    bad = structure_violations(broken)
    assert any("congruence" in b for b in bad)
    assert "symmetry" in bad
    too_big = CharPoly(5, (ZERO, poly(2), ZERO, poly(4), poly(1, 9), poly(6)))
    assert any("degree" in b for b in structure_violations(too_big))


def set_structure_violations(cp: CharPoly) -> list[str]:
    """The invariants checked on exponent lists and two sets of (X, Y) terms, kept as the masks' oracle."""
    out = []
    for r, sr in enumerate(cp.s, 1):
        if sr and sr.degree > r:
            out.append(f"degree bound: s{r}")
        want = (cp.p * r) % 8
        if any(e % 8 != want for e in sr.exponents()):
            out.append(f"congruence class: s{r}")
    terms = cp.bivariate_terms()
    if terms != frozenset((b, a) for a, b in terms):
        out.append("symmetry")
    return out


def test_structure_violations_match_set_version():
    rng = random.Random(7)
    relations = [F3, F5, F7, CharPoly(7, (ZERO,) * 8), CharPoly(3, (poly(*range(12)), ZERO, poly(1), poly(4)))]
    for p in odd_primes_up_to(61):
        cp = cached_charpoly(p)
        relations.append(cp)
        for _ in range(40):
            # one flipped bit anywhere up to twice the degree bound, and
            # now and then a second one at its mirror, to keep symmetry
            r = rng.randrange(1, p + 2)
            j = rng.randrange(2 * r + 2)
            bad = flip_bit(cp, r, j)
            relations.append(bad)
            if j <= p and rng.random() < 0.3:
                relations.append(flip_bit(bad, p + 1 - j, p + 1 - r))
    for cp in relations:
        assert structure_violations(cp) == set_structure_violations(cp), cp
    assert sum(not structure_violations(cp) for cp in relations) > 20


def test_relation_residual_vanishes():
    for p in (3, 5, 7, 11, 13):
        cp = cached_charpoly(p)
        assert relation_residual(cp, 8 * (p + 1) ** 2).is_zero(), p


def test_relation_residual_detects_wrong_coefficients():
    broken = CharPoly(3, (ZERO, ZERO, poly(1), poly(2)))
    assert not relation_residual(broken, 128).is_zero()


def full_width_ladders(p: int, precision: int, max_j: int) -> tuple[list[int], list[int]]:
    """Delta^0..Delta^max_j and Delta(q^p)^0..Delta(q^p)^(p+1), full width below q^precision."""
    mask = (1 << precision) - 1

    def ladder(base: int, count: int) -> list[int]:
        out = [1]
        for _ in range(count):
            out.append(clmul(out[-1], base) & mask)
        return out

    return ladder(delta(precision).bits, max_j), ladder(delta_qpow(p, precision).bits, p + 1)


def full_width_residual(cp: CharPoly, precision: int) -> BitSeries:
    """F_p(Delta, Delta(q^p)) from full-width power ladders, kept as the packed residual's oracle."""
    big = cp.p + 1
    mask = (1 << precision) - 1
    max_j = max((sr.degree for sr in cp.s if sr), default=0)
    apow, bpow = full_width_ladders(cp.p, precision, max_j)
    res = bpow[big]
    for r, sr in enumerate(cp.s, 1):
        if not sr:
            continue
        sa = 0
        for j in sr.exponents():
            sa ^= apow[j]
        res ^= clmul(sa, bpow[big - r]) & mask
    return BitSeries(res & mask, precision)


def test_packed_residual_matches_full_width():
    def same(cp, precision):
        got = relation_residual(cp, precision)
        want = full_width_residual(cp, precision)
        assert (got.bits, got.precision) == (want.bits, want.precision), (cp.p, precision)
        return got

    # past p = 31 each Horner chain in Y^8 takes several steps
    for p in (*odd_primes_up_to(31), 37, 101):
        cp = cached_charpoly(p)
        assert same(cp, 8 * (p + 1) ** 2).is_zero(), p
        for precision in (1, 7, 129):
            same(cp, precision)
    for p in (37, 101):
        cp = cached_charpoly(p)
        flips = [
            (p, 1),  # in class, within the degree bound, symmetric: only the residual sees it
            (p // 2, (p * (p // 2)) % 8),  # in class, lowest allowed bit
            (p // 3, (p * (p // 3)) % 8 + 1),  # off its class
            (5, 13),  # over the degree bound
            (p + 1, p + 1),  # the top coefficient, in class
        ]
        for r, j in flips:
            assert not same(flip_bit(cp, r, j), 8 * (p + 1) ** 2).is_zero(), (p, r, j)
    off_class = CharPoly(3, (ZERO, ZERO, poly(1), poly(2)))
    too_high = CharPoly(5, (ZERO, poly(2), ZERO, poly(4), poly(1, 9, 17), poly(6, 14)))
    zero = CharPoly(7, (ZERO,) * 8)
    mixed = CharPoly(3, (poly(*range(12)), ZERO, poly(1), poly(4)))
    for cp in (off_class, too_high, zero, mixed):
        for precision in (1, 7, 128, 129):
            same(cp, precision)
        assert not same(cp, 1000).is_zero(), cp


def flip_bit(cp: CharPoly, r: int, j: int) -> CharPoly:
    """``cp`` with the bit X^j of s_r flipped."""
    s = list(cp.s)
    s[r - 1] = DeltaPoly(s[r - 1].mask ^ (1 << j))
    return CharPoly(cp.p, tuple(s))


def allowed_unknowns(p: int) -> list[tuple[int, int]]:
    """The (r, j) of the bits X^j of s_r that the relation solve allows: j <= r, j = p*r mod 8."""
    return [(r, j) for r in range(p + 1, 0, -1) for j in range((p * r) % 8, r + 1, 8)]


def test_solve_columns_match_full_width():
    # every column the packed solve can build, and its right-hand side, is
    # packed Delta^j * Delta(q^p)^(p+1-r) on the class p(p+1) mod 8
    for p in odd_primes_up_to(31):
        big = p + 1
        precision = 8 * -(-(big * big + 1) // 8)
        c = (p * big) % 8
        terms = relation._PackedTerms(p, precision, big, big >> 3)
        apow, bpow = full_width_ladders(p, precision, big)
        # descending r, then ascending, so that a head kept for j serves both ways
        for r, j in allowed_unknowns(p) + allowed_unknowns(p)[::-1]:
            want = clmul(apow[j], bpow[big - r]) & ((1 << precision) - 1)
            assert spread8(terms.column(big - r, j), c) == want, (p, r, j)
        assert spread8(terms.column(big, 0), c) == bpow[big], p


def test_columns_own_their_lowest_rows():
    # the column of X^j in s_r has its lowest exponent at j + p*i, i = p+1-r;
    # all but one or two own it, and the peel reads (i, j) back by divmod
    for p in odd_primes_up_to(499):
        big = p + 1
        unknowns = [(big - r, j) for r, j in allowed_unknowns(p)]
        extras = sorted((j + p * i, (i, j)) for i, j in unknowns if divmod(j + p * i, p) != (i, j))
        assert extras == [(big, (0, big))] + [(2 * p, (1, p))] * (p % 8 == 1), p
        # each extra shares its row with an allowed owner, X*Y and Y^2
        assert {divmod(row, p) for row, _ in extras} <= set(unknowns), p


def test_peel_matches_pivot_elimination():
    # the peel builds only the columns it reads; the owner-free elimination
    # over every built column must choose the same bits, or fail the same way
    def by_elimination(p, window):
        big = p + 1
        terms = relation._PackedTerms(p, 8 * -(-window // 8), big, big >> 3)
        unknowns = allowed_unknowns(p)
        chosen = gf2series._gf2_solve(
            (terms.column(big - r, j) for r, j in unknowns),
            terms.column(big, 0),
            lambda idx: RankDeficient(f"column {idx}"),
            lambda: SingularSystem("rhs"),
        )
        return relation._chosen_relation(p, (unknowns[idx] for idx in bit_positions(chosen)))

    def outcome(solve, p, window):
        try:
            return solve(p, window)
        except RankDeficient:
            return RankDeficient

    for p in odd_primes_up_to(127):
        window = (p + 1) ** 2 + 1
        assert relation._solve_relation(p, window) == by_elimination(p, window), p
    # windows about the highest lowest exponent of a column, p^2 + 1 at
    # p = 1 mod 8, and about the Sturm bound
    for p in (3, 5, 7, 11, 17, 41):
        for window in (p * p - 7, p * p, p * p + 1, p * p + 2, p * p + 9, (p + 1) ** 2 - 8, (p + 1) ** 2):
            assert outcome(relation._solve_relation, p, window) == outcome(by_elimination, p, window), (p, window)


def test_hecke_matrix_small():
    m = hecke_matrix(3, 5)
    # images of x, x^3, x^5 are 0, x, 0
    assert m.rows == (0, 1, 0)
    assert m.is_strictly_lower_triangular()


def test_hecke_matrix_residue_one_prime():
    m = hecke_matrix(17, 31)
    assert m.is_strictly_lower_triangular()


def test_hecke_matrix_validates_arguments():
    with pytest.raises(ValueError):
        hecke_matrix(3, 6)
    with pytest.raises(NotPrime):
        hecke_matrix(9, 5)


def delta7_coeff_sigma(n: int) -> int:
    """Coefficient of q^n in the 7th power, via the divisor sum / 8 mod 2."""
    if n <= 0 or n % 8 != 7:
        raise BadResidue(f"n must be positive and 7 mod 8, got {n}")
    s = sigma1(n)
    if s % 8:
        raise AssertionError(f"divisor sum of {n} is not a multiple of 8")
    return (s // 8) & 1


def test_delta7_coefficients():
    assert delta7_coeff_sigma(7) == 1
    assert delta7_coeff_sigma(15) == 1
    assert delta7_coeff_sigma(31) == 0
    with pytest.raises(BadResidue):
        delta7_coeff_sigma(9)
    # cross-check against the brute-force seventh power
    f = delta(200).pow(7)
    for n in range(7, 200, 8):
        assert delta7_coeff_sigma(n) == f.coeff(n)


def test_prop1_closed_forms():
    assert prop1_closed_form(3, 7) == poly(5)
    assert prop1_closed_form(13, 5) == poly(1)
    assert prop1_closed_form(17, 3) == ZERO
    assert prop1_closed_form(17, 7) == ZERO
    assert prop1_closed_form(7, 7) == poly(1)
    assert prop1_closed_form(31, 7) == ZERO
    for k in (1, 3, 5, 7):
        assert prop1_closed_form(41, k) == ZERO
    with pytest.raises(BadK):
        prop1_closed_form(3, 9)
    with pytest.raises(NotPrime):
        prop1_closed_form(15, 3)


def test_cache_round_trip():
    for cp in (F3, F5, F7, cached_charpoly(11)):
        assert charpoly_from_text(charpoly_to_text(cp)) == cp


def test_cache_parser_ignores_trailing_lines():
    text = charpoly_to_text(F5) + "F_5(X,Y) = whatever\n"
    assert charpoly_from_text(text) == F5


def test_cache_parser_rejects_corruption():
    good = charpoly_to_text(F5)
    assert good.endswith("end 4\n")
    with pytest.raises(CacheFormatError):
        charpoly_from_text(good.replace("end 4", "end 7"))
    with pytest.raises(CacheFormatError):
        charpoly_from_text(good.replace("s2:", "t2:"))
    with pytest.raises(CacheFormatError):
        charpoly_from_text("p x\n")
    with pytest.raises(CacheFormatError):
        charpoly_from_text("p 5\ns1: -\n")
    with pytest.raises(CacheFormatError):
        charpoly_from_text(good.replace("s4: 4", "s4: 2 4"))


def test_render_bivariate():
    assert F3.render() == "Y^4 + X Y + X^4"
    assert F5.render() == "Y^6 + X^2 Y^4 + X^4 Y^2 + X Y + X^6"
