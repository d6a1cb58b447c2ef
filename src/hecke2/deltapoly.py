"""Polynomials in the cusp-form generator over GF(2).

The ambient space of level-1 modular forms mod 2 is the polynomial ring in
Delta; a form is stored as the set of its exponents, packed into one integer
(bit ``k`` set means the monomial ``Delta^k`` is present).  Addition is the
symmetric difference of exponent sets, multiplication is the carry-less
product shared with the series kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotAPolynomial, PrecisionTooLow, ZeroPolynomial
from .gf2series import (
    BitSeries,
    bit_positions,
    clmul,
    delta,
    delta_powers,
    odd_squares,
    spread8,
    spread_bits,
    square_multiply,
    stride_bits,
)

__all__ = [
    "DeltaPoly",
    "FormDecomposition",
    "Parity",
    "ZERO",
    "ONE",
    "monomial",
    "to_series",
    "from_series",
    "decompose",
]


class Parity(enum.Enum):
    ZERO = "zero"
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


_EVEN_BITS = 0  # lazily built alternating mask, grown on demand
_EVEN_BITS_LEN = 0


def _even_mask(nbits: int) -> int:
    """0b...0101 mask covering at least nbits positions."""
    global _EVEN_BITS, _EVEN_BITS_LEN
    if _EVEN_BITS_LEN < nbits:
        words = (nbits + 63) // 64
        _EVEN_BITS = int.from_bytes(b"\x55" * (words * 8), "little")
        _EVEN_BITS_LEN = words * 64
    return _EVEN_BITS


@dataclass(frozen=True, slots=True)
class DeltaPoly:
    """A GF(2) polynomial in Delta, stored as a packed exponent set."""

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("exponent mask must be nonnegative")

    @classmethod
    def from_exponents(cls, exponents) -> "DeltaPoly":
        mask = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            mask ^= 1 << e
        return cls(mask)

    @property
    def degree(self) -> int:
        if self.mask == 0:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return self.mask.bit_length() - 1

    def exponents(self) -> tuple[int, ...]:
        return tuple(bit_positions(self.mask))

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, exponent: int) -> bool:
        return exponent >= 0 and (self.mask >> exponent) & 1 == 1

    def __add__(self, other: "DeltaPoly") -> "DeltaPoly":
        return DeltaPoly(self.mask ^ other.mask)

    def __mul__(self, other: "DeltaPoly") -> "DeltaPoly":
        return DeltaPoly(clmul(self.mask, other.mask))

    def square(self) -> "DeltaPoly":
        return DeltaPoly(spread_bits(self.mask, 2))

    def frobenius(self, s: int = 1) -> "DeltaPoly":
        """The 2^s-th power: every exponent scaled by 2^s."""
        if s < 0:
            raise ValueError("s must be nonnegative")
        return DeltaPoly(spread_bits(self.mask, 1 << s))

    def pow(self, k: int) -> "DeltaPoly":
        if k < 0:
            raise ValueError("negative powers are not defined")
        return square_multiply(self, k, ONE)

    def parity_class(self) -> Parity:
        if self.mask == 0:
            return Parity.ZERO
        even = self.mask & _even_mask(self.mask.bit_length())
        if even == self.mask:
            return Parity.EVEN
        if even == 0:
            return Parity.ODD
        return Parity.MIXED

    def render(self) -> str:
        """Text form ``x^a + x^b`` with exponents strictly decreasing."""
        if self.mask == 0:
            return "0"
        return " + ".join(f"x^{e}" for e in reversed(self.exponents()))

    def __str__(self) -> str:
        return self.render()


ZERO = DeltaPoly(0)
ONE = DeltaPoly(1)


def monomial(exponent: int) -> DeltaPoly:
    if exponent < 0:
        raise ValueError("exponents must be nonnegative")
    return DeltaPoly(1 << exponent)


@dataclass(frozen=True, slots=True)
class FormDecomposition:
    """2-adic splitting ``f = [1] + sum_s part_s^(2^s)`` with odd parts."""

    has_constant: bool
    components: tuple[tuple[int, DeltaPoly], ...]

    def reassemble(self) -> DeltaPoly:
        mask = 1 if self.has_constant else 0
        for s, part in self.components:
            mask ^= spread_bits(part.mask, 1 << s)
        return DeltaPoly(mask)


def _odd_parts(mask: int) -> dict[int, list[int]]:
    """The odd parts m of the exponents 2^s m >= 1 of ``mask``, ascending, grouped by s:
    the one 2-adic split, read by ``decompose`` and the T_p appliers.  Group 0, the odd
    exponents, is split off by one AND against the even mask and is always present."""
    even = mask & _even_mask(mask.bit_length())
    groups = {0: bit_positions(mask ^ even)}
    for k in bit_positions(even >> 1 << 1):
        s = (k & -k).bit_length() - 1
        if s not in groups:
            groups[s] = []
        groups[s].append(k >> s)
    return groups


def decompose(f: DeltaPoly) -> FormDecomposition:
    """Group the exponents of ``f`` by their 2-adic valuation.

    Component ``s`` collects ``{k >> s : v2(k) = s}`` (``_odd_parts``), s ascending;
    each part has only odd exponents and the reassembly identity is exact.
    """
    groups = _odd_parts(f.mask)
    components = tuple((s, DeltaPoly.from_exponents(groups[s])) for s in sorted(groups) if groups[s])
    return FormDecomposition(0 in f, components)


# Forms of degree below this expand from the held ladder of powers of Delta
# (``delta_powers``), one xor per exponent; splitting them further costs more
# per node than it saves.  A leaf at precision P reads up to 256 items of P/8
# bits, and P is at most about 256p when the form is expanded to p*deg + 1, so
# the leaves' ladder holds at most 256 * 32p bits, about 0.5 MiB at p = 499,
# far under the store's 16 MiB for every prime the CLI accepts.
_SPLIT_DEGREE = 256


def to_series(f: DeltaPoly, precision: int) -> BitSeries:
    """Expand ``f`` as a q-series to the given precision.

    Characteristic-2 divide and conquer: split ``f = A(x)^2 + x*B(x)^2``,
    where A takes the even exponents halved and B the odd ones less one,
    halved.  Then ``f(Delta) = A(Delta)^2 + Delta*B(Delta)^2``.  Every
    Delta^k lies on the q-exponents congruent to k mod 8, so A(Delta)^2
    lies on even q-exponents and Delta*B(Delta)^2 on odd ones.  Squaring is
    the exponent-doubling spread, so each level costs one product by the
    sparse Delta, and both halves recurse at half the precision.  Delta^k
    starts at q^k, so exponents at or above the precision are cut first.
    A product by Delta xors shifts of its other operand by the odd squares
    below the node's precision (``odd_squares``), the exponents of Delta.
    Parts of degree below ``_SPLIT_DEGREE`` are leaves: they xor the packed
    items of the process-wide ``delta_powers`` ladder class by class, so the
    expansion builds no power of Delta itself.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    keep = (1 << precision) - 1
    return BitSeries(_expand(f.mask & keep, precision, {}), precision)


def _expand(mask: int, precision: int, ladders: dict[int, list[int]]) -> int:
    """Bits of f(Delta) mod q^precision, for exponents of f below ``precision``.

    At a leaf, Delta^e is item e of ``delta_powers(precision, top)``, packed on
    its class e mod 8, so the leaf xors the items of its exponents into eight
    class accumulators and unpacks each nonzero one once (``spread8``): at most
    eight unpacks per leaf, not one per power.  ``ladders`` keeps the longest
    answer per precision across the leaves of one expansion.
    """
    if mask.bit_length() <= _SPLIT_DEGREE:
        if not mask:
            return 0
        top = mask.bit_length() - 1
        ladder = ladders.get(precision)
        if ladder is None or len(ladder) <= top:
            ladder = ladders[precision] = delta_powers(precision, top)
        accs = [0] * 8
        for e in bit_positions(mask):
            accs[e & 7] ^= ladder[e]
        out = 0
        for c, acc in enumerate(accs):
            if acc:
                out |= spread8(acc, c)
        return out
    keep = (1 << precision) - 1
    half = (precision + 1) // 2
    cut = (1 << half) - 1
    even = _expand(stride_bits(mask, 2) & cut, half, ladders)
    odd = spread_bits(_expand(stride_bits(mask, 2, 1) & cut, half, ladders), 2)
    acc = spread_bits(even, 2)
    for e in odd_squares(precision):
        acc ^= odd << e
    return acc & keep


def from_series(f: BitSeries, max_deg: int) -> DeltaPoly:
    """Recover the unique polynomial of degree <= ``max_deg`` matching ``f``.

    Every power Delta^e starts with ``q^e``, so peeling off the least
    nonzero coefficient ``j`` strictly raises the residual's valuation.  A
    residual term with ``j > max_deg`` means no polynomial in the degree
    budget matches the known coefficients; non-membership beyond the
    supplied precision is not decidable, so a match here only certifies
    agreement on the known window.  The peel runs one exponent class mod 8
    at a time (see ``_peel``), from the packed Delta^0..Delta^7 below the
    precision.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    if f.precision < max_deg + 1:
        raise PrecisionTooLow(
            f"precision {f.precision} cannot pin down degree <= {max_deg}"
        )
    return _peel(f.bits, f.precision, max_deg, delta_powers(f.precision, 7))


def _peel(bits: int, precision: int, max_deg: int, ladder: list[int]) -> DeltaPoly:
    """The polynomial of degree <= ``max_deg`` expanding to ``bits`` below ``precision``.

    Delta^e lies on the q-exponents congruent to e mod 8, so class c of the
    series fixes exactly the exponents e = 8m + c of the polynomial, and each
    class is peeled on its own (``_peel_class``).  The error names the lowest
    exponent above ``max_deg`` left on any class, the term a peel of the
    whole series in ascending order stops at.
    """
    width = (precision + 7) // 8  # packed precision of class 0, the widest
    gaps = {0: [0]}
    digits = format(bits, f"0{8 * width}b")
    mask = 0
    stops = []
    for c in range(8):
        part, stop = _peel_class(int(digits[7 - c :: 8], 2), c, precision, max_deg, ladder, gaps, width)
        mask |= part
        if stop is not None:
            stops.append(stop)
    if stops:
        raise NotAPolynomial(
            f"residual term q^{min(stops)} exceeds the degree bound {max_deg}"
        )
    return DeltaPoly(mask)


def _peel_class(
    residual: int,
    c: int,
    precision: int,
    max_deg: int,
    ladder: list[int],
    gaps: dict[int, list[int]],
    width: int,
) -> tuple[int, int | None]:
    """Peel class c of a series below ``precision``, packed (bit m stands for q^(8m + c)).

    Returns the exponents 8m + c <= ``max_deg`` peeled off, unpacked, and the
    lowest exponent above ``max_deg`` left on the class, or None.  The class
    starts from packed Delta^c, and moving from exponent 8m + c to 8m' + c
    multiplies by Delta^(8(m' - m)), which packed on class 0 is the plain
    series of Delta^(m' - m): a gap power at an eighth of the precision and
    an eighth of the exponent.

    ``ladder`` is ``delta_powers(n, kmax)`` with n >= ``precision`` and
    kmax >= 7; its items give the starting powers and every gap below
    kmax + 1, the rest come from square-and-multiply.  ``gaps`` caches the
    set-bit positions of the gap powers below q^``width``; peels that share
    it must agree on ``width`` and need no more than it, since each product
    is cut to the class's own packed precision.
    """
    keep = (1 << ((precision - c + 7) // 8)) - 1
    cur = ladder[c] & keep  # packed expansion of the current power
    if residual and not cur & 1:
        raise ValueError(f"ladder item {c} does not start at q^{c}")
    mask = 0
    last = 0
    while residual:
        m = (residual & -residual).bit_length() - 1
        if 8 * m + c > max_deg:
            return mask, 8 * m + c
        gap = m - last
        step = gaps.get(gap)
        if step is None:
            if gap < len(ladder):
                low = ladder[gap] & ((1 << ((width - gap % 8 + 7) // 8)) - 1)
                power = spread8(low, gap % 8)
            else:
                power = delta(width).pow(gap).bits
            step = gaps[gap] = bit_positions(power)
            if step[:1] != [gap]:  # else the residual's valuation could stall
                raise ValueError(f"ladder item {gap} does not start at q^{gap}")
        acc = 0
        for n in step:
            acc ^= cur << n
        cur = acc & keep
        last = m
        mask ^= 1 << (8 * m + c)
        residual ^= cur
    return mask, None
