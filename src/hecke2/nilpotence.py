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
from typing import NamedTuple

from .codes import NEG_INF, Code, code, dominant_exponent, h, n3, n5
from .deltapoly import DeltaPoly, Parity, decompose
from .errors import NotOddForm, WitnessFailed, ZeroPolynomial
from .hecke import cached_charpoly, is_odd_prime, shared_image_table

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

    The T_3 and T_5 tables come from ``hecke.shared_image_table``, the
    process-wide store keyed on the relation, so a call at or below the
    degree of a held table reuses it.  T_p never raises the degree, so an
    image above the form's degree raises WitnessFailed, however far the held
    table reaches.
    """
    parity = f.parity_class()
    if parity is Parity.ZERO:
        raise ZeroPolynomial("the zero form has no witness")
    if parity is not Parity.ODD:
        raise NotOddForm("the form must be supported on odd powers")
    a, b = code(dominant_exponent(f))
    deg = f.degree
    out = f.mask
    for p, times in ((3, a), (5, b)):
        if not times:
            continue
        table = shared_image_table(cached_charpoly(p), deg)
        for _ in range(times):
            out = table.apply(out)
            if out.bit_length() > deg + 1:  # T_p never raises the degree
                raise WitnessFailed(f"T{p} took the form above degree {deg}")
    result = DeltaPoly(out)
    if out != 2:
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
    ``hecke.shared_image_table``, as ``apply_witness``'s do.
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


def _is_power_of_four(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0 and x.bit_length() & 1


def check_bounds_g(k: int) -> BoundsTightness:
    """Exact-integer check of the two-sided square-root bounds on g(k).

    lower: 1 + sqrt(k-1)/2 <= g(k), tight exactly at k = 1 and k = 4^a + 1;
    upper: g(k) <= (3/2) sqrt(k+1) - 1, tight exactly at k = 4^a - 1.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and positive")
    hk = h(k)
    g = hk + 1
    if 4 * hk * hk < k - 1:
        raise AssertionError(f"lower bound fails at k={k}")
    if 4 * (g + 1) * (g + 1) > 9 * (k + 1):
        raise AssertionError(f"upper bound fails at k={k}")
    lower_tight = 4 * hk * hk == k - 1
    if lower_tight != (k == 1 or _is_power_of_four(k - 1)):
        raise AssertionError(f"lower tightness characterization fails at k={k}")
    upper_tight = 4 * (g + 1) * (g + 1) == 9 * (k + 1)
    if upper_tight != _is_power_of_four(k + 1):
        raise AssertionError(f"upper tightness characterization fails at k={k}")
    return BoundsTightness(lower_tight, upper_tight)


def check_bounds_n3(k: int) -> bool:
    """n3(k) <= sqrt((3k-1)/2) - 1, tight exactly at k = 1 + 2(4^a - 1)/3."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and positive")
    v = n3(k)
    if 2 * (v + 1) * (v + 1) > 3 * k - 1:
        raise AssertionError(f"n3 bound fails at k={k}")
    tight = 2 * (v + 1) * (v + 1) == 3 * k - 1
    if tight != (k == 1 or _is_power_of_four(3 * (k - 1) // 2 + 1)):
        raise AssertionError(f"n3 tightness characterization fails at k={k}")
    return tight


def check_bounds_n5(k: int) -> bool:
    """n5(k) <= sqrt((3k+1)/4) - 1, tight exactly at k = (4^a - 1)/3."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and positive")
    v = n5(k)
    if 4 * (v + 1) * (v + 1) > 3 * k + 1:
        raise AssertionError(f"n5 bound fails at k={k}")
    tight = 4 * (v + 1) * (v + 1) == 3 * k + 1
    if tight != _is_power_of_four(3 * k + 1):
        raise AssertionError(f"n5 tightness characterization fails at k={k}")
    return tight


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
