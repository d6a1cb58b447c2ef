"""Order of nilpotence under the odd Hecke operators.

For a nonzero form supported on odd powers, the order of nilpotence (the
smallest g such that every length-g product of odd-prime operators kills the
form) equals h of the dominant exponent plus one, with the explicit witness:
applying T_3 n3-many times and T_5 n5-many times reduces the form to the
generator itself.  General forms are handled through the 2-adic
decomposition; a finite-prime-set brute force serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .codes import NEG_INF, Code, code, dominant_exponent
from .deltapoly import DeltaPoly, Parity, decompose
from .errors import NotOddForm, WitnessFailed, ZeroPolynomial
from .fast import _from_odd, shared_image_table
from .gf2series import stride_bits
from .primes import is_odd_prime
from .relation import cached_charpoly

__all__ = [
    "NilpotenceReport",
    "BoundsTightness",
    "g_odd",
    "g_general",
    "apply_witness",
    "g_bruteforce",
    "check_bounds_g",
    "check_bounds_n3",
    "check_bounds_n5",
    "render_report",
]


@dataclass(frozen=True, slots=True)
class NilpotenceReport:
    g: int | float
    h: int | float | None
    dominant_exponent: int | None = None
    code: Code | None = None
    witness: tuple[int, int] | None = None
    per_component: tuple[tuple[int, "NilpotenceReport"], ...] | None = None


_ZERO_REPORT = NilpotenceReport(g=NEG_INF, h=NEG_INF)


def g_odd(f: DeltaPoly) -> NilpotenceReport:
    """Nilpotence report for a form with odd exponents only (or zero)."""
    parity = f.parity_class()
    if parity is Parity.ZERO:
        return _ZERO_REPORT
    if parity is not Parity.ODD:
        raise NotOddForm("the form must be supported on odd powers")
    m1 = dominant_exponent(f)
    c = code(m1)
    return NilpotenceReport(
        g=c.n3 + c.n5 + 1,
        h=c.n3 + c.n5,
        dominant_exponent=m1,
        code=c,
        witness=(c.n3, c.n5),
    )


def g_general(f: DeltaPoly) -> NilpotenceReport:
    """Nilpotence report for an arbitrary form via its 2-adic components.

    Each component occupies its own exponent classes (fixed 2-adic
    valuation), and the operators commute with squaring, so components never
    cancel against each other: the max over components is exact, not just an
    upper bound.  The brute-force oracle cross-checks this in the tests.
    """
    parity = f.parity_class()
    if parity in (Parity.ZERO, Parity.ODD):
        return g_odd(f)
    dec = decompose(f)
    subs = tuple((s, g_odd(part)) for s, part in dec.components)
    g: int | float = 1 if dec.has_constant else NEG_INF
    for _, sub in subs:
        g = max(g, sub.g)
    return NilpotenceReport(g=g, h=None, per_component=subs)


def apply_witness(f: DeltaPoly) -> DeltaPoly:
    """Apply T_3^(n3) T_5^(n5) for the dominant-exponent code; must yield Delta.

    The T_3 and T_5 tables come from ``fast.shared_image_table``, the
    process-wide store keyed on the relation, so a call at or below the
    degree of a held table reuses it.  The chain runs on odd-exponent masks,
    bit v for Delta^(2v+1), the layout of the tables' odd images: the form is
    strided into one once, each step returns the next, and the result is
    spread back once.  The chain runs in the order it is written, T5^(n5)
    first; on the witness forms of the ``queries`` workload that order xors
    fewer images than T3 first.  Each T_p^n runs by binary powers
    (``ImageTable.power_steps``): one step of T^(2^i) per set bit i of n,
    highest first, by power rows the table builds on first read and keeps.
    T_p never raises the degree, so an image above the form's degree raises
    WitnessFailed, however far the held table reaches; a step by power rows
    stands for single steps that each kept the form's degree, so results and
    errors are those of the chain one T_p at a time.

    Costs on a 2-core machine, against one T_p at a time: with the rows
    held, 15 witnesses on 24-term odd forms of degrees 1023-4095 take 3-4 ms
    against 31-33 (``tests/bench_applier.py``).  The rows cost a table's
    first chains: the same 15 with the store emptied take 0.14-0.25 s
    against 0.04, and one witness on such a form of degree 4095 in a fresh
    process 70-125 ms against 7-11 (its second call 0.6-1.0 ms against 3-4).
    At degree 16383 the rows fill their table's cap in the first chain,
    which takes 0.8-0.9 s against 0.06; later ones take as long as before.
    """
    parity = f.parity_class()
    if parity is Parity.ZERO:
        raise ZeroPolynomial("the zero form has no witness")
    if parity is not Parity.ODD:
        raise NotOddForm("the form must be supported on odd powers")
    a, b = code(dominant_exponent(f))
    deg = f.degree
    out = stride_bits(f.mask, 2, 1)
    for p, times in ((5, b), (3, a)):
        if not times:
            continue
        table = shared_image_table(cached_charpoly(p), deg)
        for out in table.power_steps(out, times):
            if 2 * out.bit_length() > deg + 1:  # T_p never raises the degree
                raise WitnessFailed(f"T{p} took the form above degree {deg}")
    result = DeltaPoly(_from_odd(out, 0))
    if out != 1:
        raise WitnessFailed(
            f"witness T3^{a} T5^{b} left {result.render()} instead of x^1"
        )
    return result


def g_bruteforce(f: DeltaPoly, primes) -> int | float:
    """Smallest L such that every size-L multiset from ``primes`` kills ``f``.

    The operators commute, so survival depth over multisets equals survival
    depth over sequences; the search walks images depth-first and memoizes on
    the exponent mask (an image's depth is history-free).  Without the memo
    this is C(L + |primes| - 1, |primes| - 1) operator chains.

    The value is at most the true order of nilpotence, with equality whenever
    3 and 5 are both available.  The tables come from
    ``fast.shared_image_table``, as ``apply_witness``'s do.
    """
    plist = sorted(set(primes))
    if not plist:
        raise ValueError("need at least one odd prime")
    for p in plist:
        if not is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime")
    if not f:
        return NEG_INF
    tables = [shared_image_table(cached_charpoly(p), f.degree) for p in plist]
    memo: dict[int, int] = {0: 0}

    def survive(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        depth = 1 + max(survive(table.apply(mask)) for table in tables)
        memo[mask] = depth
        return depth

    return survive(f.mask)


class BoundsTightness(NamedTuple):
    lower_tight: bool
    upper_tight: bool


class _Bound(NamedTuple):
    """A square-root bound on odd k >= 1, for ints and numpy arrays alike (spelled out
    by ``check_bounds_g/n3/n5``): ``slack(value(n3, n5), k)`` is >= 0, and 0
    exactly at the tight points ``point(4^a)``, a >= ``first``."""

    value: Callable
    slack: Callable
    point: Callable[[int], int]
    first: int

    @lru_cache(maxsize=None)
    def tight(self, lim: int) -> frozenset[int]:
        """The tight points up to ``lim``, kept for each ``lim`` asked for."""
        return frozenset(k for a in range(self.first, lim.bit_length() + 2) if (k := self.point(4**a)) <= lim)


_BOUNDS = {
    "lower": _Bound(lambda a, b: a + b, lambda h, k: 4 * h * h - (k - 1), lambda q: q + 1 if q > 1 else 1, 0),
    "upper": _Bound(lambda a, b: a + b + 1, lambda g, k: 9 * (k + 1) - 4 * (g + 1) ** 2, lambda q: q - 1, 1),
    "n3": _Bound(lambda a, b: a, lambda v, k: 3 * k - 1 - 2 * (v + 1) ** 2, lambda q: (2 * q + 1) // 3, 0),
    "n5": _Bound(lambda a, b: b, lambda v, k: 3 * k + 1 - 4 * (v + 1) ** 2, lambda q: (q - 1) // 3, 1),
}


def _check_bounds(k: int, *names: str) -> list[bool]:
    """Exact-integer check of the named ``_BOUNDS`` at ``k`` from one code, True where
    each is tight; tightness reads the tight points below the next 2^j > k."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and positive")
    a, b = code(k)
    out = []
    for name in names:
        bound = _BOUNDS[name]
        slack = bound.slack(bound.value(a, b), k)
        if slack < 0:
            raise AssertionError(f"{name} bound fails at k={k}")
        if (slack == 0) != (k in bound.tight(1 << k.bit_length())):
            raise AssertionError(f"{name} tightness characterization fails at k={k}")
        out.append(slack == 0)
    return out


def check_bounds_g(k: int) -> BoundsTightness:
    """Exact-integer check of the two-sided square-root bounds on g(k).

    lower: 1 + sqrt(k-1)/2 <= g(k), tight exactly at k = 1 and k = 4^a + 1;
    upper: g(k) <= (3/2) sqrt(k+1) - 1, tight exactly at k = 4^a - 1.
    """
    return BoundsTightness(*_check_bounds(k, "lower", "upper"))


def check_bounds_n3(k: int) -> bool:
    """n3(k) <= sqrt((3k-1)/2) - 1, tight exactly at k = 1 + 2(4^a - 1)/3."""
    return _check_bounds(k, "n3")[0]


def check_bounds_n5(k: int) -> bool:
    """n5(k) <= sqrt((3k+1)/4) - 1, tight exactly at k = (4^a - 1)/3."""
    return _check_bounds(k, "n5")[0]


def render_report(report: NilpotenceReport, kv: bool = False) -> str:
    """Text (or key=value) rendering for the command line."""
    if report.g == NEG_INF:
        return "g=-inf"
    parts = [f"g={report.g}"]
    if report.h is not None and report.h != NEG_INF:
        parts.append(f"h={report.h}")
    if report.dominant_exponent is not None:
        parts.append(f"dominant={report.dominant_exponent}")
    if report.code is not None:
        parts.append(f"code=({report.code.n3},{report.code.n5})")
    if report.witness is not None:
        parts.append(f"witness=T3^{report.witness[0]} T5^{report.witness[1]}")
    head = " ".join(parts) if not kv else "\n".join(parts)
    if not report.per_component:
        return head
    lines = [head]
    for s, sub in report.per_component:
        lines.append(f"  component s={s}: {render_report(sub)}")
    return "\n".join(lines)
