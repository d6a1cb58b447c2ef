"""The naive route: T_p on q-expansions.

Expand the form, drop to every p-th coefficient (folding in the multiples
of p), and recognize the image polynomial.  It reads no relation F_p, so it
is the route the others are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltapoly import ZERO, DeltaPoly, _peel, from_series, monomial, to_series
from .errors import BadK, NotAPolynomial
from .gf2series import BitSeries, delta_powers, spread8, spread_bits, stride_bits
from .primes import _require_odd_prime


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
