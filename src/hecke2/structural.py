"""Auxiliary polynomial families and the base-4 shift identities.

The images of Delta^k under T_3 and T_5 satisfy exact shift identities
relating index 4^n + k (and 2*4^n + k) to small neighbours of k, with
coefficient polynomials built from a handful of recursively defined
families.  These generators, and checkers for the identities and their
special-value corollaries, let the test suite exercise the structure theory
behind the nilpotence-order formula.  The checkers read the images from a
caller's list whose item k is the image of Delta^k, such as
``hecke_fast_range``'s.
"""

from __future__ import annotations

from functools import lru_cache

from .deltapoly import ONE, ZERO, DeltaPoly, monomial
from .relation import CharPoly

__all__ = [
    "a_seq",
    "q_poly",
    "u_poly",
    "v_poly",
    "w_poly",
    "y_poly",
    "check_shift3",
    "check_shift5",
    "check_corollary_values",
]


def a_seq(n: int) -> int:
    """1 + 4 + ... + 4^(n-1) = (4^n - 1)/3, with a_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ((1 << (2 * n)) - 1) // 3


@lru_cache(maxsize=None)
def q_poly(n: int) -> DeltaPoly:
    """Q_n = sum of x^((a_i + 3) 4^(n-i)) for i = 1..n; Q_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return DeltaPoly.from_exponents(
        (a_seq(i) + 3) << (2 * (n - i)) for i in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def u_poly(n: int) -> DeltaPoly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ZERO
    if n == 1:
        return ONE
    return monomial(4) * u_poly(n - 1).frobenius(2) + monomial(12) * u_poly(
        n - 2
    ).frobenius(4)


@lru_cache(maxsize=None)
def v_poly(n: int) -> DeltaPoly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ONE
    if n == 1:
        return ZERO
    return monomial(3) * u_poly(n - 1).frobenius(2)


@lru_cache(maxsize=None)
def w_poly(n: int) -> DeltaPoly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return ZERO
    return (monomial(8) + monomial(16)) * u_poly(n - 1).frobenius(2) + w_poly(
        n - 1
    ).frobenius(2)


@lru_cache(maxsize=None)
def y_poly(n: int) -> DeltaPoly:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ZERO
    if n == 1:
        return monomial(8)
    return monomial(8) * u_poly(n).square() + w_poly(n).square()


def _table_to(table: list[DeltaPoly], top: int) -> list[DeltaPoly]:
    """``table`` itself, once it is known to reach image ``top``."""
    if len(table) <= top:
        raise ValueError(f"table ends at image {len(table) - 1}, image {top} is needed")
    return table


@lru_cache(maxsize=None)
def _shift_terms(p: int, n: int) -> tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]:
    """The two shift identities of T_p at n, p = 3 or 5, as data.

    Each identity is its lead index (4^n, then 2*4^n) and its pairs
    (offset j, exponents of the coefficient of P(k+j)), as written in the
    docstrings of ``check_shift3`` and ``check_shift5``.
    """
    f = 4**n
    if p == 3:
        qn, xan = q_poly(n), monomial(a_seq(n))
        identities = (
            (f, ((0, qn), (1, xan))),
            (2 * f, ((0, qn.square()), (2, xan.square()))),
        )
    else:
        un, vn = u_poly(n), v_poly(n)
        un2 = un.square()
        identities = (
            (f, ((0, w_poly(n)), (1, vn), (4, un))),
            (2 * f, ((0, y_poly(n)), (1, monomial(3) * un2), (2, vn.square()), (3, monomial(1) * un2))),
        )
    return tuple((lead, tuple((j, c.exponents()) for j, c in pairs)) for lead, pairs in identities)


def _check_shifts(p: int, n: int, k: int, pk: list[DeltaPoly]) -> bool:
    """Both shift identities of T_p at (n, k): each right side is the xor of
    P(k+j) shifted by every exponent of its coefficient."""
    for which, (lead, terms) in zip(("first", "second"), _shift_terms(p, n)):
        rhs = 0
        for j, exponents in terms:
            mask = pk[k + j].mask
            for e in exponents:
                rhs ^= mask << e
        if rhs != pk[lead + k].mask:
            raise AssertionError(f"{which} shift identity fails at n={n}, k={k}")
    return True


def check_shift3(n: int, k: int, cp3: CharPoly, table: list[DeltaPoly]) -> bool:
    """Both T_3 shift identities at (n, k), against a list of T_3 images.

    P(4^n + k) = Q_n P(k) + x^(a_n) P(k+1) and
    P(2*4^n + k) = Q_n^2 P(k) + x^(2 a_n) P(k+2).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if cp3.p != 3:
        raise ValueError("need the p=3 relation")
    return _check_shifts(3, n, k, _table_to(table, 2 * 4**n + k + 2))


def check_shift5(n: int, k: int, cp5: CharPoly, table: list[DeltaPoly]) -> bool:
    """Both T_5 shift identities at (n, k), against a list of T_5 images.

    P(4^n + k) = W_n P(k) + V_n P(k+1) + U_n P(k+4) and
    P(2*4^n + k) = Y_n P(k) + x^3 U_n^2 P(k+1) + V_n^2 P(k+2) + x U_n^2 P(k+3).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if cp5.p != 5:
        raise ValueError("need the p=5 relation")
    return _check_shifts(5, n, k, _table_to(table, 2 * 4**n + k + 4))


def check_corollary_values(
    n: int,
    cp3: CharPoly,
    cp5: CharPoly,
    table3: list[DeltaPoly],
    table5: list[DeltaPoly],
) -> bool:
    """All nonnegative-index special values at 4^n and 2*4^n, both primes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if (cp3.p, cp5.p) != (3, 5):
        raise ValueError("need the p=3 and p=5 relations")
    f = 4**n
    an = a_seq(n)
    p3 = _table_to(table3, 2 * f + 5)
    expected3 = {
        f: ZERO,
        f + 1: ZERO,
        f + 4: ZERO,
        f + 2: monomial(an + 1),
        f + 3: monomial(1) * q_poly(n),
        f + 5: monomial(an + 2),
        2 * f: ZERO,
        2 * f + 2: ZERO,
        2 * f + 1: monomial(2 * an + 1),
        2 * f + 3: monomial(1) * q_poly(n).square(),
        2 * f + 4: monomial(2 * an + 2),
    }
    for k, want in expected3.items():
        if p3[k] != want:
            raise AssertionError(f"T_3 special value fails at n={n}, k={k}")
    p5 = _table_to(table5, 2 * f + 4)
    un, vn = u_poly(n), v_poly(n)
    expected5 = {
        f: ZERO,
        f + 2: ZERO,
        f + 1: monomial(1) * un,
        f + 3: monomial(3) * un,
        f + 4: monomial(1) * vn,
        2 * f: ZERO,
        2 * f + 1: ZERO,
        2 * f + 4: ZERO,
        2 * f + 2: monomial(2) * un.square(),
        2 * f + 3: monomial(1) * vn.square(),
    }
    for k, want in expected5.items():
        if p5[k] != want:
            raise AssertionError(f"T_5 special value fails at n={n}, k={k}")
    return True
