import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hecke2 import codes, verify
from hecke2.codes import (
    NEG_INF,
    Code,
    cap_H,
    code,
    decode,
    dominant_exponent,
    dominates,
    domination_key,
    h,
    h_poly,
    n3,
    n5,
    support,
)
from hecke2.deltapoly import DeltaPoly
from hecke2.errors import MixedParity, ParityMismatch, ZeroPolynomial
from hecke2.fast import hecke_fast_range
from hecke2.relation import cached_charpoly
from helpers import poly


def test_support_examples():
    assert support(21) == {4, 16}
    assert support(1) == frozenset()
    assert support(6) == {2, 4}


def test_code_table_rows():
    table = {
        1: (0, 0, 0), 3: (1, 0, 1), 5: (0, 1, 1), 7: (1, 1, 2), 9: (2, 0, 2),
        11: (3, 0, 3), 13: (2, 1, 3), 15: (3, 1, 4), 17: (0, 2, 2),
        19: (1, 2, 3), 21: (0, 3, 3),
    }
    for k, (a, b, hk) in table.items():
        assert (n3(k), n5(k), h(k)) == (a, b, hk)


def test_degenerate_values():
    assert (n3(0), n5(0), h(0)) == (0, 0, 0)
    assert (n3(1), n5(1), h(1)) == (0, 0, 0)


def test_h_of_powers_of_two():
    for i in range(1, 21):
        assert h(1 << i) == 1 << ((i - 1) // 2)


def test_code_decode_examples():
    assert code(19) == Code(1, 2)
    assert decode(Code(1, 0), odd=1) == 3
    for k in range(10_001):
        assert decode(code(k), k & 1) == k


def test_dominates():
    assert dominates(17, 15) == -1
    assert dominates(17, 9) == 1
    assert dominates(7, 7) == 0
    with pytest.raises(ParityMismatch):
        dominates(2, 3)


def test_domination_not_translation_invariant():
    # adding 4 flips the comparison of 2 and 4
    assert dominates(2, 4) == -1
    assert dominates(4 + 2, 4 + 4) == 1


def test_dominant_exponent():
    assert dominant_exponent(poly(13, 5)) == 13
    assert dominant_exponent(poly(17, 9)) == 17
    assert dominant_exponent(poly(7)) == 7
    with pytest.raises(ZeroPolynomial):
        dominant_exponent(DeltaPoly(0))
    with pytest.raises(MixedParity):
        dominant_exponent(poly(1, 2))


def test_h_poly():
    assert h_poly(poly(13, 5)) == 3
    assert h_poly(DeltaPoly(0)) == NEG_INF
    for n in range(1, 9):
        assert h_poly(poly(4**n)) == 1 << (n - 1)
    with pytest.raises(MixedParity):
        h_poly(poly(1, 2))


def test_h_poly_is_h_of_dominant():
    for mask in range(1, 1 << 10):
        f = DeltaPoly(mask).square()  # even polynomials of degree <= 18
        assert h_poly(f) == h(dominant_exponent(f))


def test_cap_H():
    assert cap_H(2) == 0
    assert cap_H(4) == 2
    assert cap_H(7) == 6
    for b in range(1, 25):
        assert cap_H(b) == (1 << (b // 2)) - 2


def test_parity_table():
    rows_n3 = (0, 0, 1, 1, 0, 0, 1, 1)
    rows_n5 = (0, 0, 0, 0, 1, 1, 1, 1)
    rows_h = (0, 0, 1, 1, 1, 1, 0, 0)
    for k in range(100_000):
        r = k % 8
        assert n3(k) % 2 == rows_n3[r]
        assert n5(k) % 2 == rows_n5[r]
        assert h(k) % 2 == rows_h[r]


def test_odd_neighbour_shares_code():
    for l in range(0, 50_000):
        assert n3(2 * l + 1) == n3(2 * l)
        assert n5(2 * l + 1) == n5(2 * l)


def test_doubling_rules():
    for k in range(1, 50_000):
        if k & 1:
            assert code(2 * k) == (1 + 2 * n5(k), n3(k))
            assert code(4 * k) == (2 * n3(k), 1 + 2 * n5(k))
        else:
            assert code(2 * k) == (2 * n5(k), n3(k))
            assert code(4 * k) == (2 * n3(k), 2 * n5(k))


@given(st.integers(0, 1 << 40), st.integers(0, 1 << 40))
def test_h_subadditivity(k, l):
    eps = 1 if (k & 1 and l & 1) else 0
    assert h(k + l) <= h(k) + h(l) + eps


@given(st.integers(0, 1 << 30), st.integers(0, 1 << 30))
def test_disjoint_support_additivity(k, l):
    if support(k) & support(l):
        return
    if k % 4 == 1 and l % 4 == 1:
        assert h(k + l) == h(k) + h(l) + 1
    elif not (k & 1 and l & 1):
        assert h(k + l) == h(k) + h(l)


def test_h_increment_corollary():
    # h once per k, read back for k + 1, ..., k + 4
    hs = [h(k) for k in range(200_004)]
    for k in range(200_000):
        hk = hs[k]
        if k % 2 == 0:
            assert hs[k + 1] == hk
        else:
            assert hs[k + 1] <= hk + 1
        if k % 4 in (0, 1):
            assert hs[k + 2] == hk + 1
        else:
            assert hs[k + 2] <= hk
        assert hs[k + 3] <= hk + 1
        assert hs[k + 4] <= hk + 1


def test_domination_key_orders_codes():
    # within one parity class the key sorts by h then n5
    ks = sorted(range(1, 200, 2), key=domination_key)
    for a, b in zip(ks, ks[1:]):
        assert dominates(a, b) == -1


def _old_dominant(f):
    # the per-exponent digit walk the slice table replaced
    return max(f.exponents(), key=lambda k: (h(k), n5(k)))


def _old_h_poly(f):
    return max(h(e) for e in f.exponents())


def _slice_values(slices, size):
    # read the table back: entry k is the integer whose bits the slices hold at k
    values = np.zeros(size, dtype=np.int64)
    for s in slices:
        row = np.frombuffer(s.to_bytes(size // 8, "little"), np.uint8)
        values = values << 1 | np.unpackbits(row, bitorder="little")
    return values.tolist()


def test_key_table_matches_gather():
    # the vector unshuffle, and the slices built from it, against the scalar
    # digit walk on every k <= 2^16
    table = codes._slice_table((1 << 16) - 1)
    assert table.size == 1 << 16
    assert [w for w, _ in table.h] == [1 << b for b in reversed(range(len(table.h)))]
    hs = _slice_values([s for _, s in table.h], table.size)
    n5s = _slice_values(table.n5, table.size)
    a, b = (x.tolist() for x in codes.code_arrays((1 << 16) + 1))
    assert len(a) == len(b) == (1 << 16) + 1
    for k in range(len(a)):
        c = code(k)
        assert (a[k], b[k]) == c, k
        if k < table.size:
            assert (hs[k], n5s[k]) == (c.n3 + c.n5, c.n5), k


def test_table_kernel_matches_digit_walk(monkeypatch):
    # start from no table, so each top below walks the table through a growth
    monkeypatch.setattr(codes, "_table", codes._Slices(0, (), ()))
    rng = random.Random(2024)
    # just below, at and above each growth point; 2^16 - 1 is the last table exponent
    for top in [(1 << b) + d for b in range(12, 17) for d in (-1, 0, 1)]:
        for _ in range(20):
            exps = {top} | {rng.randrange(top) & ~1 | top & 1 for _ in range(rng.randint(1, 30))}
            f = poly(*exps)
            assert dominant_exponent(f) == _old_dominant(f), top
            assert h_poly(f) == _old_h_poly(f), top
        assert codes._table.size == min(1 << 16, 1 << top.bit_length())
    # above the cap the scalar path decides, whatever the table holds
    for f in (poly(999_999, 999_997, 65_535, 21), poly(10**6, 2**20 - 2, 4094)):
        assert dominant_exponent(f) == _old_dominant(f)
        assert h_poly(f) == _old_h_poly(f)
    assert codes._table.size == 1 << 16


def test_table_kernel_single_terms(monkeypatch):
    monkeypatch.setattr(codes, "_table", codes._Slices(0, (), ()))
    for k in (0, 1, 2, 3, 4095, 4096, 8191, 65_535, 65_536, 999_999, 10**6):
        assert dominant_exponent(poly(k)) == k
        assert h_poly(poly(k)) == h(k)
        assert domination_key(k) == (h(k), n5(k))
    with pytest.raises(ValueError):
        domination_key(-1)
    for f in (poly(4096, 4097), poly(6, 99_999)):
        with pytest.raises(MixedParity):
            dominant_exponent(f)
        with pytest.raises(MixedParity):
            h_poly(f)


def _silent_flip(monkeypatch):
    # install the first flip that makes a T_3 image k <= 4095 pick a wrong
    # exponent rather than raise: one h bit cleared at the image's dominant
    # exponent e, under which another term e2 wins over e; return e and e2
    table = codes._slice_table(4095)
    for img in hecke_fast_range(cached_charpoly(3), 4095):
        if not img:
            continue
        e = dominant_exponent(img)
        for i, (w, s) in enumerate(table.h):
            if h(e) & w:
                monkeypatch.setattr(codes, "_table", table._replace(
                    h=table.h[:i] + ((w, s ^ 1 << e),) + table.h[i + 1:],
                ))
                for e2 in img.exponents():
                    try:
                        if e2 != e and codes._dominant(1 << e | 1 << e2)[0] == e2:
                            return e, e2
                    except AssertionError:  # the flip left both; look further
                        pass
                monkeypatch.setattr(codes, "_table", table)
    raise AssertionError("no flip changes a dominant exponent")


def test_flipped_h_slice_fails_the_sweep_and_a_two_term_form(monkeypatch):
    e, e2 = _silent_flip(monkeypatch)
    f = poly(e, e2)
    with pytest.raises(AssertionError):
        assert dominant_exponent(f) == _old_dominant(f)
    with pytest.raises(AssertionError, match="fails at k="):
        verify._REGISTRY["t3-image-structure"](verify.VerifyConfig(kmax=4095))


def test_two_exponents_with_equal_slices_raise(monkeypatch):
    # copy the column of 9 onto 7 in every slice: no slice separates them
    table = codes._slice_table(4095)

    def copied(s):
        return s & ~(1 << 7) | (s >> 9 & 1) << 7

    monkeypatch.setattr(codes, "_table", table._replace(
        h=tuple((w, copied(s)) for w, s in table.h), n5=tuple(copied(s) for s in table.n5),
    ))
    with pytest.raises(AssertionError, match="more than one dominant exponent"):
        codes._dominant(1 << 7 | 1 << 9)
    with pytest.raises(AssertionError, match="more than one dominant exponent"):
        dominant_exponent(poly(7, 9))


def _dominant_and_h(f):
    e = max(f.exponents(), key=domination_key)
    return e, h(e)


def _counting_dominant(monkeypatch):
    # count the searches behind dominant_exponent and h_poly
    calls = []
    search = codes._dominant

    def counted(mask):
        calls.append(mask)
        return search(mask)

    monkeypatch.setattr(codes, "_dominant", counted)
    return calls


def test_both_reads_share_one_search_per_form(monkeypatch):
    calls = _counting_dominant(monkeypatch)
    codes._slice_table(6000)  # no form below grows the table
    rng = random.Random(34)
    forms = []
    for _ in range(40):
        odd = rng.random() < 0.5
        f = poly(*{rng.randrange(6000) & ~1 | odd for _ in range(rng.randint(1, 20))})
        # an equal mask in a distinct object reads the same result
        forms += [f, DeltaPoly.from_exponents(f.exponents())]
    last = None
    for _ in range(400):
        f = rng.choice(forms)
        before = len(calls)
        if rng.random() < 0.5:
            assert dominant_exponent(f) == _dominant_and_h(f)[0]
        else:
            assert h_poly(f) == _dominant_and_h(f)[1]
        # a search runs exactly when the mask differs from the last one read
        assert len(calls) - before == (f.mask != last)
        last = f.mask


def test_shared_search_raises_after_a_cached_form():
    pure = poly(4095, 21, 7)
    assert dominant_exponent(pure) == _dominant_and_h(pure)[0]
    mixed = poly(4095, 21, 6)
    with pytest.raises(MixedParity, match="mixes even and odd"):
        dominant_exponent(mixed)
    with pytest.raises(MixedParity, match="mixes even and odd"):
        h_poly(mixed)
    assert h_poly(pure) == _dominant_and_h(pure)[1]
    with pytest.raises(ZeroPolynomial, match="no dominant exponent"):
        dominant_exponent(DeltaPoly(0))
    assert h_poly(DeltaPoly(0)) == NEG_INF
    assert (dominant_exponent(pure), h_poly(pure)) == _dominant_and_h(pure)


def test_shared_search_misses_when_the_table_grows(monkeypatch):
    monkeypatch.setattr(codes, "_table", codes._Slices(0, (), ()))
    calls = _counting_dominant(monkeypatch)
    f = poly(4093, 1001, 19, 3)
    assert dominant_exponent(f) == _dominant_and_h(f)[0]
    assert h_poly(f) == _dominant_and_h(f)[1]
    assert len(calls) == 1 and codes._table.size == 1 << 12
    # a larger mask searched by _dominant alone, as the image-structure
    # sweeps do, grows the table and leaves the kept result in place
    codes._slice_table(40_001)
    assert codes._table.size == 1 << 16
    assert h_poly(f) == _dominant_and_h(f)[1]
    assert dominant_exponent(f) == _dominant_and_h(f)[0]
    assert calls == [f.mask, f.mask]


def test_a_patched_table_is_never_served_the_cached_result(monkeypatch):
    calls = _counting_dominant(monkeypatch)
    table = codes._slice_table(4095)
    f = poly(7, 9)
    assert dominant_exponent(f) == _dominant_and_h(f)[0]
    # an equal table in another object is searched again
    monkeypatch.setattr(codes, "_table", table._replace())
    assert h_poly(f) == _dominant_and_h(f)[1]
    assert len(calls) == 2
    # a table that no longer separates 7 from 9 raises instead of serving 9

    def copied(s):
        return s & ~(1 << 7) | (s >> 9 & 1) << 7

    monkeypatch.setattr(codes, "_table", table._replace(
        h=tuple((w, copied(s)) for w, s in table.h), n5=tuple(copied(s) for s in table.n5),
    ))
    with pytest.raises(AssertionError, match="more than one dominant exponent"):
        h_poly(f)
    with pytest.raises(AssertionError, match="more than one dominant exponent"):
        dominant_exponent(f)
    monkeypatch.setattr(codes, "_table", table)
    assert (dominant_exponent(f), h_poly(f)) == _dominant_and_h(f)


def test_key_table_is_lazy_and_bounded():
    src = str(Path(codes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import hecke2\n"
        "from hecke2 import codes\n"
        "from hecke2.deltapoly import DeltaPoly\n"
        "print(codes._table.size)\n"
        "codes.dominant_exponent(DeltaPoly.from_exponents([5, 1 << 20 | 1]))\n"
        "print(codes._table.size)\n"
        "codes.dominant_exponent(DeltaPoly.from_exponents([5, 65_535]))\n"
        "print(codes._table.size)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    at_import, above_cap, at_cap = map(int, run.stdout.split())
    assert at_import == 0
    assert above_cap == 0
    assert at_cap == 1 << 16
