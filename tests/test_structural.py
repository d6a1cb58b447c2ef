from functools import lru_cache

import pytest

from hecke2.codes import code, dominant_exponent, h_poly
from hecke2.deltapoly import ZERO, DeltaPoly, Parity, monomial
from hecke2.hecke import cached_charpoly, hecke_fast_range, hecke_naive
from hecke2.structural import (
    _shift_terms,
    a_seq,
    check_corollary_values,
    check_shift3,
    check_shift5,
    q_poly,
    u_poly,
    v_poly,
    w_poly,
    y_poly,
)
from helpers import poly


def test_a_seq_values():
    assert [a_seq(n) for n in range(8)] == [0, 1, 5, 21, 85, 341, 1365, 5461]


def test_a_seq_codes():
    for n in range(1, 12):
        assert code(a_seq(n)) == (0, (1 << (n - 1)) - 1)
        assert code(2 * a_seq(n)) == ((1 << n) - 1, 0)


def test_q_poly_values():
    assert q_poly(0) == ZERO
    assert q_poly(1) == poly(4)
    assert q_poly(2) == poly(16, 8)
    assert q_poly(3) == poly(64, 32, 24)
    assert q_poly(5) == poly(1024, 512, 384, 352, 344)


def test_uvwy_values():
    assert u_poly(2) == poly(4)
    assert u_poly(3) == poly(20, 12)
    assert u_poly(4) == poly(84, 76, 52)
    assert u_poly(5) == poly(340, 332, 308, 212, 204)
    assert v_poly(2) == poly(3)
    assert v_poly(3) == poly(19)
    assert v_poly(4) == poly(83, 51)
    assert v_poly(5) == poly(339, 307, 211)
    assert w_poly(2) == poly(16, 8)
    assert w_poly(3) == poly(64, 24)
    assert w_poly(4) == poly(256, 88, 64, 56)
    assert w_poly(5) == poly(1024, 344, 320, 312, 256, 216)
    assert y_poly(1) == poly(8)
    assert y_poly(2) == poly(32)
    assert y_poly(3) == poly(128, 32)
    assert y_poly(4) == poly(512, 160, 128)
    assert y_poly(5) == poly(2048, 672, 640, 512, 416)


def test_q_family_structure():
    for n in range(1, 9):
        q = q_poly(n)
        assert q.parity_class() is Parity.EVEN
        assert dominant_exponent(q) == 4**n
        assert h_poly(q) == 1 << (n - 1)
        assert dominant_exponent(q.square()) == 2 * 4**n
        assert h_poly(q.square()) == 1 << n


def test_uvwy_structure():
    for n in range(2, 9):
        an = a_seq(n)
        u, v, w, y = u_poly(n), v_poly(n), w_poly(n), y_poly(n)
        assert u.parity_class() is Parity.EVEN and u.degree == an - 1
        assert h_poly(u) == (1 << (n - 1)) - 1
        assert v.parity_class() is Parity.ODD and v.degree == an - 2
        assert h_poly(v) == (1 << (n - 1)) - 1
        assert w.parity_class() is Parity.EVEN and w.degree == 4**n
        assert h_poly(w) == 1 << (n - 1)
        assert y.parity_class() is Parity.EVEN and y.degree == 2 * 4**n
        assert h_poly(y) == 1 << n


def test_shift3_worked_examples():
    cp3 = cached_charpoly(3)
    table = hecke_fast_range(cp3, 2 * 4**3 + 4)
    assert check_shift3(2, 3, cp3, table)
    assert check_shift3(1, 0, cp3, table)
    # spelled out: image at index 19 = Q_2 * x + x^(a_2) * image at 4
    assert q_poly(2) * poly(1) == poly(17, 9)
    assert check_shift3(3, 2, cp3, table)


def test_shift3_against_naive_route():
    # independent check of index 66 = 4^3 + 2 through q-expansions
    lhs = hecke_naive(monomial(66), 3)
    rhs = q_poly(3) * hecke_naive(monomial(2), 3) + monomial(a_seq(3)) * hecke_naive(
        monomial(3), 3
    )
    assert lhs == rhs


def test_shift5_worked_examples():
    cp5 = cached_charpoly(5)
    table = hecke_fast_range(cp5, 2 * 4**2 + 9)
    assert check_shift5(1, 1, cp5, table)
    assert check_shift5(2, 1, cp5, table)
    assert check_shift5(2, 5, cp5, table)
    # index 17 = 4^2 + 1 reduces to x^4 * image at 5 = x^5
    assert u_poly(2) * poly(1) == poly(5)


def test_corollary_values():
    cp3, cp5 = cached_charpoly(3), cached_charpoly(5)
    t3, t5 = hecke_fast_range(cp3, 2 * 4**3 + 5), hecke_fast_range(cp5, 2 * 4**3 + 4)
    for n in range(4):
        assert check_corollary_values(n, cp3, cp5, t3, t5)


def test_corollary_examples_spelled_out():
    assert hecke_naive(monomial(18), 3) == monomial(a_seq(2) + 1)  # x^6
    assert hecke_naive(monomial(7), 5) == monomial(3) * u_poly(1)  # x^3
    assert hecke_naive(monomial(67), 3) == monomial(1) * q_poly(3)


def test_checkers_validate_input():
    cp3, cp5 = cached_charpoly(3), cached_charpoly(5)
    t3, t5 = hecke_fast_range(cp3, 20), hecke_fast_range(cp5, 20)
    with pytest.raises(ValueError):
        check_shift3(-1, 0, cp3, t3)
    with pytest.raises(ValueError):
        check_shift3(1, 1, cp5, t5)
    with pytest.raises(ValueError):
        check_shift5(1, 1, cp3, t3)
    with pytest.raises(ValueError):
        check_shift5(1, -1, cp5, t5)
    with pytest.raises(ValueError):
        check_corollary_values(1, cp5, cp3, t5, t3)


def test_checkers_reject_a_short_table():
    # a table that ends before the identity's top index is an error, not a
    # silent recompute; 2*4^1 + 3 + 2 = 13 is the top index of the T_3 check
    cp3, cp5 = cached_charpoly(3), cached_charpoly(5)
    t3 = hecke_fast_range(cp3, 12)
    with pytest.raises(ValueError, match="image 13 is needed"):
        check_shift3(1, 3, cp3, t3)
    assert check_shift3(1, 3, cp3, hecke_fast_range(cp3, 13))
    with pytest.raises(ValueError, match="image 15 is needed"):
        check_shift5(1, 3, cp5, hecke_fast_range(cp5, 14))
    t3, t5 = hecke_fast_range(cp3, 2 * 4**2 + 5), hecke_fast_range(cp5, 2 * 4**2 + 3)
    with pytest.raises(ValueError, match="image 36 is needed"):
        check_corollary_values(2, cp3, cp5, t3, t5)


@pytest.mark.parametrize("n", range(9))
def test_shift_terms_match_the_docstring_formulas(n):
    # the cached exponent lists rebuilt as polynomials, against the products
    # written in the docstrings of check_shift3 and check_shift5
    def rebuilt(p):
        return [
            (lead, [(j, DeltaPoly.from_exponents(es)) for j, es in terms])
            for lead, terms in _shift_terms(p, n)
        ]

    f, an = 4**n, a_seq(n)
    qn, un, vn = q_poly(n), u_poly(n), v_poly(n)
    assert rebuilt(3) == [
        (f, [(0, qn), (1, monomial(an))]),
        (2 * f, [(0, qn * qn), (2, monomial(2 * an))]),
    ]
    assert rebuilt(5) == [
        (f, [(0, w_poly(n)), (1, vn), (4, un)]),
        (2 * f, [(0, y_poly(n)), (1, monomial(3) * un * un), (2, vn * vn), (3, monomial(1) * un * un)]),
    ]


# the offsets j each identity reads, by prime: (lead index / 4^n, offsets),
# the first identity, then the second
_READS = {3: ((1, (0, 1)), (2, (0, 2))), 5: ((1, (0, 1, 4)), (2, (0, 1, 2, 3)))}
_CHECKERS = {3: check_shift3, 5: check_shift5}


@lru_cache(maxsize=None)
def _images(p):
    return tuple(hecke_fast_range(cached_charpoly(p), 2 * 4**5 + 305))


def _flips():
    # n >= 2, where every coefficient is nonzero and no neighbour is a lead
    for p, reads in _READS.items():
        for n, k in ((2, 0), (3, 17), (5, 300)):
            for which, (lead, offsets) in zip(("first", "second"), reads):
                # a flipped neighbour fails the first identity that reads it
                yield p, n, k, lead * 4**n + k, which
                for j in offsets:
                    fails = "first" if j in reads[0][1] else "second"
                    yield p, n, k, k + j, fails


@pytest.mark.parametrize("p, n, k, index, fails", list(_flips()))
def test_shift_checkers_catch_one_flipped_bit(p, n, k, index, fails):
    cp, table = cached_charpoly(p), list(_images(p))
    assert _CHECKERS[p](n, k, cp, table)
    table[index] = DeltaPoly(table[index].mask ^ 0b10)
    with pytest.raises(AssertionError, match=f"^{fails} shift identity fails at n={n}, k={k}$"):
        _CHECKERS[p](n, k, cp, table)
