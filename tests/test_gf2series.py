import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke2.errors import PrecisionTooLow
from hecke2.gf2series import (
    _BYTEWISE_STR_LIMIT,
    _DOUBLING_LOOP_LIMIT,
    _SPREAD_LOOP_LIMIT,
    BitSeries,
    bit_positions,
    clmul,
    delta,
    odd_squares,
    one,
    spread8,
    spread_bits,
    stride_bits,
    zero,
)
from helpers import delta_qpow, sigma1


def conv_oracle(a: BitSeries, b: BitSeries) -> BitSeries:
    """Schoolbook truncated convolution mod 2, independent of clmul."""
    prec = min(a.precision, b.precision)
    out = 0
    for n in range(prec):
        c = 0
        for i in range(n + 1):
            c ^= ((a.bits >> i) & 1) & ((b.bits >> (n - i)) & 1)
        out |= c << n
    return BitSeries(out, prec)


def test_zero_basics():
    assert zero(8).coeff(5) == 0
    assert zero(1).precision == 1
    assert zero(8) + zero(8) == zero(8)


def test_zero_rejects_bad_precision():
    with pytest.raises(ValueError):
        zero(0)


def test_delta_support():
    assert delta(30).support() == (1, 9, 25)
    assert delta(30).coeff(4) == 0
    assert delta(2).coeff(1) == 1


def test_odd_squares_are_the_exponents_below_the_precision():
    # the shared list grows on demand, so ask out of order
    for n in (2000, 1, 2, 9, 10, 26, 1089, 1090, 3000, 7):
        assert odd_squares(n) == [m * m for m in range(1, n, 2) if m * m < n], n


def test_delta_qpow():
    assert delta_qpow(3, 30).support() == (3, 27)
    assert delta_qpow(1, 100) == delta(100)
    assert delta_qpow(5, 50).support() == (5, 45)


def test_delta_qpow_is_substitution():
    for p in (3, 5, 7, 11):
        n = 400
        small = delta(-(-n // p))  # ceil(n/p) coefficients determine the class
        assert delta_qpow(p, n).bits == spread_bits(small.bits, p, n)


def test_add():
    d = delta(10)
    assert d + d == zero(10)
    assert d + zero(10) == d
    a = BitSeries(0b1010, 6)  # q + q^3
    b = BitSeries(0b101000, 6)  # q^3 + q^5
    assert (a + b).support() == (1, 5)


def test_add_truncates_to_min_precision():
    assert (delta(30) + zero(10)).precision == 10


def test_mul_vs_oracle_on_delta_square():
    d = delta(60)
    sq = d * d
    assert sq == conv_oracle(d, d)
    assert sq.coeff(2) == 1
    assert all(sq.coeff(n) == 0 for n in range(1, 60, 2))


def test_mul_delta_cube_q3_coefficient():
    d = delta(20)
    cube = d * (d * d)
    assert cube == conv_oracle(d, conv_oracle(d, d))
    assert cube.coeff(3) == 1


def test_mul_by_zero():
    assert delta(40) * zero(40) == zero(40)


def test_square_spreads_bits():
    assert delta(52).square().support() == (2, 18, 50)


def test_pow_one_and_zero():
    f = delta(33)
    assert f.pow(1) == f
    assert f.pow(0) == one(33)
    assert BitSeries(0b110, 8).pow(0) == one(8)


def test_delta7_divisor_sum_rule():
    n = 256
    f = delta(n).pow(7)
    for m in range(7, n, 8):
        s = sigma1(m)
        assert s % 8 == 0
        assert f.coeff(m) == (s // 8) & 1


def test_coeff_out_of_range():
    with pytest.raises(PrecisionTooLow):
        delta(10).coeff(10)
    with pytest.raises(PrecisionTooLow):
        delta(10).coeff(-1)


def test_truncate():
    assert delta(50).truncate(10) == delta(10)
    with pytest.raises(PrecisionTooLow):
        delta(10).truncate(20)


def test_residue_class_vanishing():
    # coefficient n of the k-th power vanishes unless n = k mod 8
    n = 240
    d = delta(n)
    f = one(n)
    for k in range(1, 65):
        f = f * d
        assert f == d.pow(k)
        for m in range(n):
            if m % 8 != k % 8:
                assert f.coeff(m) == 0, (k, m)


@given(st.integers(0, (1 << 80) - 1), st.integers(1, 6))
def test_frobenius_square_chain(mask, k):
    f = BitSeries(mask, 80)
    assert f.pow(2 * k) == f.pow(k).square()


@given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
def test_mul_commutative(a, b):
    x, y = BitSeries(a, 64), BitSeries(b, 64)
    assert x * y == y * x


@settings(max_examples=50)
@given(
    st.integers(0, (1 << 48) - 1),
    st.integers(0, (1 << 48) - 1),
    st.integers(0, (1 << 48) - 1),
)
def test_mul_associative(a, b, c):
    x, y, z = (BitSeries(v, 48) for v in (a, b, c))
    assert (x * y) * z == x * (y * z)


@settings(max_examples=50)
@given(st.integers(0, (1 << 40) - 1), st.integers(0, (1 << 40) - 1))
def test_mul_matches_convolution(a, b):
    x, y = BitSeries(a, 40), BitSeries(b, 40)
    assert x * y == conv_oracle(x, y)


def spread_oracle(mask: int, factor: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << ((low.bit_length() - 1) * factor)
        mask ^= low
    return out


@given(st.integers(0, (1 << 200) - 1), st.sampled_from([2, 3, 4, 5, 8]))
def test_spread_bits_positions(mask, factor):
    assert spread_bits(mask, factor) == spread_oracle(mask, factor)


def test_spread_bits_numpy_path_matches_loop():
    mask = int.from_bytes(b"\xb7" * 200, "little")  # 1600 bits, dense
    assert spread_bits(mask, 2) == spread_oracle(mask, 2)
    # limits on and off a multiple of the factor; the limit cuts the source
    # mask first, and the cut mask picks the loop or the numpy path
    for factor in (2, 3):
        for limit, numpy_path in ((1000, False), (1001, False), (3000, True), (3001, True)):
            cut = mask & ((1 << -(-limit // factor)) - 1)
            assert (cut.bit_count() > _SPREAD_LOOP_LIMIT) == numpy_path
            want = spread_oracle(mask, factor) & ((1 << limit) - 1)
            assert spread_bits(mask, factor, limit) == want, (factor, limit)


@pytest.mark.parametrize("count", [_DOUBLING_LOOP_LIMIT, _DOUBLING_LOOP_LIMIT + 1, 2000])
def test_spread_bits_doubling_table_matches_loop(count):
    # up to the limit a factor-2 spread takes the loop, above it the byte table
    rng = random.Random(count)
    for width in (count, count + 7, 70000):
        mask = _random_bits(rng, count, width)
        assert spread_bits(mask, 2) == spread_oracle(mask, 2)
        for limit in (width, width + 1, 2 * width - 1):
            assert spread_bits(mask, 2, limit) == spread_oracle(mask, 2) & ((1 << limit) - 1)


@given(st.integers(0, (1 << 300) - 1), st.sampled_from([2, 3, 5, 61]), st.integers(0, 70))
def test_stride_bits_keeps_every_step_th_bit(mask, step, start):
    want = sum(1 << n for n in range((mask.bit_length() + step) // step)
               if mask >> (start + n * step) & 1)
    assert stride_bits(mask, step, start) == want
    assert stride_bits(spread_bits(mask, step), step) == mask


def test_clmul_small_cases():
    assert clmul(0b11, 0b11) == 0b101
    assert clmul(0, 0b1011) == 0
    assert clmul(1, 0b1011) == 0b1011


def _random_bits(rng: random.Random, count: int, width: int) -> int:
    return sum(1 << e for e in rng.sample(range(width), count))


@pytest.mark.parametrize("count", [0, 1, 256, 257])
def test_bit_positions_both_paths(count):
    # 256 set bits take the loop, 257 the numpy path; one bit sits far up
    x = _random_bits(random.Random(count), count, 3000) if count > 1 else count << 70000
    assert bit_positions(x) == [i for i in range(x.bit_length()) if x >> i & 1]


def test_clmul_dense_operands_match_convolution():
    rng = random.Random(5)
    a, b = _random_bits(rng, 300, 640), _random_bits(rng, 320, 640)
    assert min(a.bit_count(), b.bit_count()) > 256  # the walked operand takes the numpy path
    x, y = BitSeries(a, 640), BitSeries(b, 640)
    assert x * y == conv_oracle(x, y)


@pytest.mark.parametrize("nbits", [1, 9, _BYTEWISE_STR_LIMIT, _BYTEWISE_STR_LIMIT + 1, 3000])
def test_spread8_frobenius_exponent_squares_the_unpacked_mask(nbits):
    # bit m goes to 2^s (8m + c): the unpacked mask squared s times, on the
    # string path up to _BYTEWISE_STR_LIMIT packed bits and on numpy above
    rng = random.Random(nbits)
    for packed in (rng.getrandbits(nbits) | 1 << (nbits - 1), 1 << (nbits - 1), (1 << nbits) - 1):
        for s in range(5):
            for c in range(8):
                assert spread8(packed, c, s) == spread_bits(spread8(packed, c), 1 << s), (s, c)
    assert spread8(0, 5, 3) == 0
