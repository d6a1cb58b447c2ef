import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke2.deltapoly import (
    ONE,
    ZERO,
    _SPLIT_DEGREE,
    DeltaPoly,
    Parity,
    _even_mask,
    decompose,
    from_series,
    to_series,
)
from hecke2.errors import NotAPolynomial, PrecisionTooLow, ZeroPolynomial
from hecke2.gf2series import BitSeries, clmul, delta, zero
from helpers import poly


def test_to_series_basics():
    assert to_series(poly(1), 30) == delta(30)
    assert to_series(ZERO, 10) == zero(10)
    cube = to_series(poly(3), 12)
    assert cube.coeff(3) == 1 and cube.coeff(11) == 1
    d = delta(12)
    assert cube == d * d * d


def gap_ladder_to_series(f: DeltaPoly, precision: int) -> BitSeries:
    """The sequential expansion to_series ran before its divide and conquer."""
    d = delta(precision)
    gap_powers = {}
    acc = 0
    cur = None
    last = 0
    for e in f.exponents():
        if cur is None:
            cur = d.pow(e)
        else:
            gap = e - last
            if gap not in gap_powers:
                gap_powers[gap] = d.pow(gap)
            cur = cur * gap_powers[gap]
        last = e
        acc ^= cur.bits
    return BitSeries(acc, precision)


def test_to_series_matches_gap_ladder():
    rng = random.Random(0x5E)
    cases = []
    for p, deg in ((3, 40), (3, 513), (31, 200), (31, 64)):
        f = DeltaPoly(rng.getrandbits(deg) | (1 << deg))
        cases += [(f, p * deg + 1), (f, deg // 3 + 1), (f, deg)]  # hecke_naive's, and below deg
    for precision in (1, 2, 7, 8, 9):
        cases += [(DeltaPoly(rng.getrandbits(100) | (1 << 100)), precision)]
    for f in (ZERO, ONE, poly(1)):
        cases += [(f, n) for n in (1, 2, 9, 100)]
    dense = rng.getrandbits(300) | (1 << 300) | 0b11
    even, odd = dense & _even_mask(301), dense & ~_even_mask(301)
    cases += [(DeltaPoly(even), 4000), (DeltaPoly(odd), 4000), (DeltaPoly(even), 50)]
    # exponents at or above the precision must be cut before the split
    sparse = poly(65535, 65534, 4097, 300, 33, 5, 0)
    cases += [(sparse, n) for n in (1, 6, 34, 301, 1000)]
    for f, precision in cases:
        want = gap_ladder_to_series(f, precision)
        assert to_series(f, precision) == want, (f.mask.bit_length(), precision)


def horner_to_series(f: DeltaPoly, precision: int) -> BitSeries:
    """f(Delta) by Horner's rule: one full product by Delta per exponent below the degree."""
    d, keep = delta(precision).bits, (1 << precision) - 1
    acc = 0
    for e in range(f.mask.bit_length() - 1, -1, -1):
        acc = (clmul(acc, d) & keep) ^ (f.mask >> e & 1)
    return BitSeries(acc, precision)


def test_to_series_matches_horner_clmul():
    # the expansion multiplies by Delta as shifts by the odd squares below each
    # node's precision; an odd square at P - 1 must be kept and one at P cut.
    # Forms below the split degree expand from the leaf ladder alone
    rng = random.Random(0x40)
    precisions = [m * m + t for m in (1, 3, 9, 33, 45) for t in (0, 1)] + [2, 12, 700]
    for deg in (1, 5, _SPLIT_DEGREE - 1, _SPLIT_DEGREE, _SPLIT_DEGREE + 1, 64, 150):
        for precision in precisions:
            f = DeltaPoly(rng.getrandbits(deg) | (1 << deg))
            assert to_series(f, precision) == horner_to_series(f, precision), (deg, precision)


def test_from_series_round_trips():
    assert from_series(to_series(poly(1, 3), 40), 5) == poly(1, 3)
    assert from_series(delta(40).square(), 4) == poly(2)


def test_from_series_rejects_non_polynomial():
    # q^2 + q^3 padded with zeros; at precision 10 it is still matched by
    # x^2 + x^3 (whose next expansion term is q^11), so the mismatch only
    # becomes visible from precision 12 on
    assert from_series(BitSeries(0b1100, 10), 5) == poly(2, 3)
    target = BitSeries(0b1100, 16)
    for bits in range(64):  # no degree <= 5 polynomial matches
        cand = DeltaPoly(bits)
        assert to_series(cand, 16) != target
    with pytest.raises(NotAPolynomial):
        from_series(target, 5)


def single_stream_peel(f: BitSeries, max_deg: int) -> DeltaPoly:
    """The peel from_series ran before it split the series by class mod 8."""
    d = delta(f.precision)
    gap_powers = {}
    residual = f.bits
    mask = 0
    cur = 1
    last = 0
    while residual:
        j = (residual & -residual).bit_length() - 1
        if j > max_deg:
            raise NotAPolynomial(f"residual term q^{j} exceeds the degree bound {max_deg}")
        gap = j - last
        if gap not in gap_powers:
            gap_powers[gap] = d.pow(gap).bits
        cur = clmul(cur, gap_powers[gap]) & ((1 << f.precision) - 1)
        last = j
        mask ^= 1 << j
        residual ^= cur
    return DeltaPoly(mask)


def peel_outcome(peel, f: BitSeries, max_deg: int):
    try:
        return peel(f, max_deg)
    except NotAPolynomial as exc:
        return str(exc)


def test_from_series_matches_single_stream_peel():
    rng = random.Random(0x9E)
    outcomes = []
    for i in range(600):
        deg = rng.randint(0, 600)
        precision = deg + 1 + rng.choice((0, 0, 1, 7, rng.randint(8, 600)))
        if i % 3 == 2:  # random bits: mostly no polynomial above precision deg+1
            series = BitSeries(rng.getrandbits(precision), precision)
        else:
            series = to_series(DeltaPoly(rng.getrandbits(deg) | 1 << deg), precision)
            if i % 3 == 1:  # one flipped coefficient
                series = BitSeries(series.bits ^ 1 << rng.randrange(precision), precision)
        want = peel_outcome(single_stream_peel, series, deg)
        assert peel_outcome(from_series, series, deg) == want, (i, deg, precision)
        outcomes.append(isinstance(want, str))
    assert 100 < sum(outcomes) < 500  # both outcomes are well covered


def test_from_series_dense_round_trip():
    f = DeltaPoly(random.Random(0x10).getrandbits(10_000) | 1 << 10_000)
    assert from_series(to_series(f, 10_001), 10_000) == f


def test_not_a_polynomial_names_the_lowest_offending_exponent():
    # each class stops at its own offending term; the error names the lowest,
    # here on a higher class than the other: q^7 on class 7 below q^8 on
    # class 0, and q^14 on class 6 below q^17 on class 1
    base = to_series(poly(1, 3, 6), 40).bits
    for extra, max_deg, lowest in ((1 << 7 | 1 << 8, 6, 7), (1 << 14 | 1 << 17, 13, 14)):
        series = BitSeries(base ^ extra, 40)
        message = f"residual term q^{lowest} exceeds the degree bound {max_deg}"
        assert peel_outcome(single_stream_peel, series, max_deg) == message
        with pytest.raises(NotAPolynomial) as exc:
            from_series(series, max_deg)
        assert str(exc.value) == message


def test_from_series_requires_precision():
    with pytest.raises(PrecisionTooLow):
        from_series(delta(5), 5)


def test_add_mul_examples():
    assert poly(1, 3) + poly(3, 5) == poly(1, 5)
    assert poly(1) * poly(4) == poly(5)
    assert poly(4, 2) * poly(4) == poly(8, 6)


def test_parity_classes():
    assert ZERO.parity_class() is Parity.ZERO
    assert poly(4, 12).parity_class() is Parity.EVEN
    assert poly(1, 4).parity_class() is Parity.MIXED
    assert poly(1, 3).parity_class() is Parity.ODD
    assert ONE.parity_class() is Parity.EVEN


def test_degree():
    assert poly(5, 2).degree == 5
    with pytest.raises(ZeroPolynomial):
        ZERO.degree


def test_decompose_examples():
    dec = decompose(poly(2, 3))
    assert not dec.has_constant
    assert dec.components == ((0, poly(3)), (1, poly(1)))

    dec = decompose(poly(0, 5))
    assert dec.has_constant
    assert dec.components == ((0, poly(5)),)

    dec = decompose(poly(12))
    assert dec.components == ((2, poly(3)),)


def test_render():
    assert poly(13, 5).render() == "x^13 + x^5"
    assert ZERO.render() == "0"
    assert ONE.render() == "x^0"
    assert str(poly(1)) == "x^1"


def test_frobenius_and_pow():
    f = poly(1, 3)
    assert f.square() == poly(2, 6)
    assert f.frobenius(2) == poly(4, 12)
    assert f.pow(0) == ONE
    assert f.pow(1) == f
    assert f.pow(3) == f * f * f


def test_exponent_container_protocol():
    f = poly(0, 7)
    assert 0 in f and 7 in f and 3 not in f
    assert len(f) == 2
    assert f.exponents() == (0, 7)


masks = st.integers(min_value=0, max_value=(1 << 128) - 1)


@given(masks)
def test_round_trip_property(mask):
    f = DeltaPoly(mask)
    d = f.degree if f else 0
    assert from_series(to_series(f, d + 1), d) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 48) - 1))
def test_expansion_is_ring_homomorphism(a, b):
    f, g = DeltaPoly(a), DeltaPoly(b)
    n = 120
    assert to_series(f * g, n) == to_series(f, n) * to_series(g, n)
    assert to_series(f + g, n) == to_series(f, n) + to_series(g, n)


@given(masks)
def test_decompose_reassembles(mask):
    f = DeltaPoly(mask)
    dec = decompose(f)
    assert dec.reassemble() == f
    seen = []
    for s, part in dec.components:
        assert part
        assert all(e % 2 == 1 for e in part.exponents())
        seen.append(s)
    assert seen == sorted(set(seen))


@given(masks, masks)
def test_addition_is_symmetric_difference(a, b):
    f, g = DeltaPoly(a), DeltaPoly(b)
    want = set(f.exponents()) ^ set(g.exponents())
    assert set((f + g).exponents()) == want


def test_mul_matches_exponent_convolution():
    f, g = poly(0, 1, 4), poly(2, 3)
    count = {}
    for a, b in itertools.product(f.exponents(), g.exponents()):
        count[a + b] = count.get(a + b, 0) + 1
    want = {e for e, c in count.items() if c % 2}
    assert set((f * g).exponents()) == want
