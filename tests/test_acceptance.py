"""Acceptance gate: one test per ship criterion, at the stated ranges.

All arithmetic is exact over GF(2); every comparison is bit-exact with zero
tolerance.  Each test prints one `ACCEPTANCE <id>: PASS (<ms> ms)` line (run
pytest with -s to see them) and enforces its runtime budget.  Full-scale
ranges (criteria 3b, 7b and 12b) are gated behind HECKE2_LONG=1.
"""

import random
import time
from contextlib import contextmanager

import pytest

from hecke2.cli import MAX_FORM_DEGREE
from hecke2.codes import code_arrays, h, h_poly
from hecke2.deltapoly import ZERO, DeltaPoly, decompose, from_series, to_series
from hecke2.gf2series import bit_positions
from hecke2.hecke import (
    CharPoly,
    cached_charpoly,
    charpoly_via_newton,
    compute_charpoly,
    hecke_fast,
    hecke_fast_range,
    hecke_matrix,
    hecke_naive,
    odd_primes_up_to,
    prop1_closed_form,
    relation_residual,
    structure_violations,
)
from hecke2.naive import _naive_monomial_range
from hecke2.nilpotence import apply_witness, g_bruteforce, g_general
from hecke2.structural import check_corollary_values, check_shift3, check_shift5
from hecke2.verify import _REGISTRY, VerifyConfig
from helpers import poly


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{criterion} exceeded its {seconds}s budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {criterion}: PASS ({int(elapsed * 1000)} ms)")


def test_criterion_01_f3_f5_exact():
    with budget("01-f3-f5", 2.0):
        for p, want in (
            (3, CharPoly(3, (ZERO, ZERO, poly(1), poly(4)))),
            (5, CharPoly(5, (ZERO, poly(2), ZERO, poly(4), poly(1), poly(6)))),
        ):
            start = time.perf_counter()
            cp = compute_charpoly(p)
            assert time.perf_counter() - start < 1.0
            assert cp == want


def test_criterion_02_solver_oracle_agreement():
    with budget("02-solver-vs-newton", 2.0):
        for p in odd_primes_up_to(31):
            a = compute_charpoly(p)
            b = charpoly_via_newton(p)
            assert a == b, f"methods disagree at p={p}"
            assert structure_violations(a) == [], f"structure fails at p={p}"
            assert relation_residual(a, 8 * (p + 1) ** 2).is_zero(), (
                f"residual nonzero at p={p}"
            )


def test_criterion_03_bench_to_101():
    with budget("03-bench-101", 2.0):
        for p in odd_primes_up_to(101):
            compute_charpoly(p)


@pytest.mark.long
def test_criterion_03b_bench_to_257():
    with budget("03b-bench-257", 1.5):
        for p in odd_primes_up_to(257):
            cp = compute_charpoly(p)
            assert structure_violations(cp) == []
        assert relation_residual(cp, 8 * 258 * 258).is_zero()


def test_criterion_04_low_degree_images_all_p():
    with budget("04-low-degree", 2.0):
        for p in odd_primes_up_to(499):
            for k in (1, 3, 5, 7):
                assert hecke_naive(poly(k), p) == prop1_closed_form(p, k), (p, k)


def test_criterion_05_image_tables_both_routes():
    with budget("05-tables", 2.0):
        _REGISTRY["t3-table"](VerifyConfig())
        _REGISTRY["t5-table"](VerifyConfig())


def test_criterion_06_witnesses_and_bruteforce_g():
    with budget("06-witness-and-g", 5.0):
        a, b = code_arrays(1024)
        hs = a + b
        tables = {p: hecke_fast_range(cached_charpoly(p), 1023) for p in (3, 5)}
        for k in range(1, 1024, 2):
            assert apply_witness(poly(k)) == poly(1), k
            for p in (3, 5):
                img = tables[p][k]
                if img:
                    assert int(hs[bit_positions(img.mask)].max()) <= hs[k] - 1, (p, k)
        primes = (3, 5, 7, 11, 13)
        for k in range(1, 64, 2):
            assert g_bruteforce(poly(k), primes) == h(k) + 1, k
        rng = random.Random(606)
        done = 0
        while done < 100:
            mask = rng.getrandbits(64) & int.from_bytes(b"\xaa" * 8, "little")
            if not mask:
                continue
            f = DeltaPoly(mask)
            assert g_bruteforce(f, primes) == h_poly(f) + 1
            done += 1


def test_criterion_07_image_structure_desk_scale():
    with budget("07-image-structure", 2.0):
        _REGISTRY["t3-image-structure"](VerifyConfig(kmax=4095))
        _REGISTRY["t5-image-structure"](VerifyConfig(kmax=4095))
        _REGISTRY["theta-vanishing"](VerifyConfig())


@pytest.mark.long
def test_criterion_07b_image_structure_full_scale():
    # the budget stays at 4 s: the sweeps take about 0.9 s, so 5x that run,
    # the rule the other long budgets follow, would be looser still
    with budget("07b-image-structure-long", 4.0):
        cfg = VerifyConfig(long=True)
        _REGISTRY["t3-image-structure"](cfg)
        _REGISTRY["t5-image-structure"](cfg)


def test_criterion_08_shift_identities_and_families():
    with budget("08-shift-identities", 0.5):
        cp3, cp5 = cached_charpoly(3), cached_charpoly(5)
        t3 = hecke_fast_range(cp3, 2 * 4**5 + 305)
        t5 = hecke_fast_range(cp5, 2 * 4**5 + 305)
        for n in range(6):
            for k in range(301):
                check_shift3(n, k, cp3, t3)
                check_shift5(n, k, cp5, t5)
            check_corollary_values(n, cp3, cp5, t3, t5)
        _REGISTRY["q-family-structure"](VerifyConfig())
        _REGISTRY["uvwy-family-structure"](VerifyConfig())


def test_criterion_09_integer_bounds_to_1e6():
    with budget("09-bounds", 2.0):
        _REGISTRY["g-two-sided-bounds"](VerifyConfig())
        _REGISTRY["n3-upper-bound"](VerifyConfig())
        _REGISTRY["n5-upper-bound"](VerifyConfig())


def test_criterion_10_double_decrement_and_degree_bound():
    with budget("10-g-corollaries", 2.0):
        for p in (7, 17, 23, 31):
            table = hecke_fast_range(cached_charpoly(p), 199)
            for k in range(1, 200, 2):
                assert g_general(table[k]).g <= h(k) + 1 - 2, (p, k)
        rng = random.Random(1010)
        done = 0
        while done < 1000:
            mask = 0
            for _ in range(rng.randint(1, 24)):
                mask |= 1 << rng.randint(0, 4096)
            if rng.random() < 0.2:
                mask |= 1
            if not (mask & ~1):
                continue
            f = DeltaPoly(mask)
            g = g_general(f).g
            d = f.degree
            assert 4 * g * g < 9 * d, f"degree bound fails at degree {d}"
            done += 1


def test_criterion_11_triangularity_and_nilpotence():
    with budget("11-triangular", 2.0):
        K = 99
        for p in [*odd_primes_up_to(31), 41, 73, 89, 97]:
            mat = hecke_matrix(p, K)
            assert mat.is_strictly_lower_triangular(), p


def test_criterion_12_property_suites():
    with budget("12-properties", 8.0):
        _REGISTRY["naive-fast-agree"](VerifyConfig())
        _REGISTRY["frobenius-doubling"](VerifyConfig())
        # operator commutes with squaring, through both routes
        rng = random.Random(1212)
        for p in (3, 5, 7):
            cp = cached_charpoly(p)
            # both fast routes square by construction, so hecke_fast's
            # square is set against the naive images
            images = _naive_monomial_range(p, 190)
            for _ in range(20):
                f = DeltaPoly(rng.getrandbits(96))
                want = ZERO
                for e in f.square().exponents():
                    want += images[e]
                assert hecke_fast(f.square(), cp) == want
                assert hecke_naive(f.square(), p) == hecke_naive(f, p).square()
        for _ in range(200):
            f = DeltaPoly(rng.getrandbits(192))
            d = f.degree if f else 0
            assert from_series(to_series(f, d + 1), d) == f
            assert decompose(f).reassemble() == f


@pytest.mark.long
def test_criterion_12b_naive_fast_at_form_cap():
    # both routes on one dense form of the largest degree the CLI accepts;
    # the naive image expands to q^196606 and is recognized at degree 65535
    with budget("12b-naive-fast-form-cap", 8.0):
        f = DeltaPoly(random.Random(1213).getrandbits(MAX_FORM_DEGREE) | 1 << MAX_FORM_DEGREE)
        image = hecke_naive(f, 3)
        assert image == hecke_fast(f, cached_charpoly(3))
        assert 0 < image.degree < f.degree
