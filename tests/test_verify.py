import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from hecke2 import fast, naive, verify
from hecke2.deltapoly import DeltaPoly, monomial
from hecke2.errors import WitnessFailed
from hecke2.relation import CharPoly
from hecke2.verify import VerifyConfig, run_suite


def test_library_error_fails_its_claim(monkeypatch):
    def raises(cfg):
        raise WitnessFailed("witness T3^1 T5^0 left x^3 instead of x^1")

    monkeypatch.setitem(verify._REGISTRY, "raises-witness-failed", raises)
    monkeypatch.setitem(verify.SUITES, "mixed", ("raises-witness-failed", "t3-table"))
    report = run_suite("mixed", VerifyConfig())
    failed, passed = report.claims
    assert (failed.claim_id, failed.ok, failed.range_str) == ("raises-witness-failed", False, "-")
    assert failed.detail == "witness T3^1 T5^0 left x^3 instead of x^1"
    assert passed.claim_id == "t3-table" and passed.ok
    assert not report.ok
    assert report.summary().startswith("1/2 claims passed")


def test_recurrence_genfun_covers_every_prime_to_pmax(monkeypatch):
    claim = verify._REGISTRY["recurrence-genfun"]
    assert claim(VerifyConfig(pmax=13)) == "p<=13, k<=200"

    fast_range = verify.hecke_fast_range

    def corrupted(cp, kmax):
        images = fast_range(cp, kmax)
        if cp.p == 11:
            images[150] = images[150] + DeltaPoly(1 << 2)
        return images

    monkeypatch.setattr(verify, "hecke_fast_range", corrupted)
    with pytest.raises(AssertionError, match="p=11, m=150"):
        claim(VerifyConfig(pmax=13))


def test_frobenius_doubling_reads_the_naive_route_and_sees_one_flipped_image(monkeypatch):
    claim = verify._REGISTRY["frobenius-doubling"]
    assert claim(VerifyConfig(pmax=13)) == "p<=13, naive route, 2k<=200"
    assert claim(VerifyConfig(pmax=211)) == "p<=211, naive route, 2k<=max(200,p+34)"

    naive_range = verify._naive_monomial_range

    def corrupted(p, kmax):
        images = naive_range(p, kmax)
        if p == 13:
            images[150] = images[150] + DeltaPoly(1 << 4)
        return images

    monkeypatch.setattr(verify, "_naive_monomial_range", corrupted)
    with pytest.raises(AssertionError, match="^doubling fails at p=13, k=75$"):
        claim(VerifyConfig(pmax=13))


def test_optimized_python_fails_every_claim():
    # python -O strips asserts, so a claim there could only pass vacuously
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-O", "-m", "hecke2", "verify", "prop1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 1
    assert "claim=low-degree-closed-forms range=- status=fail" in run.stdout
    assert "-O" in run.stderr


def test_claims_over_no_prime_fail():
    report = run_suite("prop1", VerifyConfig(pmax=3))
    (claim,) = report.claims
    assert not claim.ok and claim.detail == "no odd prime <= 2 to check"
    for claim_id in ("naive-fast-agree", "newton-solve-agree", "relation-structure"):
        with pytest.raises(AssertionError, match="no odd prime <= 2"):
            verify._REGISTRY[claim_id](VerifyConfig(pmax=2))


def test_structure_sweeps_over_no_power_fail():
    for kmax in (-1, 0):
        for claim_id in ("t3-image-structure", "t5-image-structure"):
            with pytest.raises(AssertionError, match=f"no power k in 1..{kmax}"):
                verify._REGISTRY[claim_id](VerifyConfig(kmax=kmax))
    assert verify._REGISTRY["t3-image-structure"](VerifyConfig(kmax=1)) == "k<=1"


@pytest.mark.parametrize("long, nmax", [(False, 5), (True, 6)])
def test_shift_claims_reach_n6_under_long(long, nmax):
    cfg = VerifyConfig(long=long)
    for claim_id in ("shift3-identities", "shift5-identities"):
        assert verify._REGISTRY[claim_id](cfg) == f"n<={nmax}, k<=300"
    assert verify._REGISTRY["shift-special-values"](cfg) == f"n<={nmax}"


def test_random_masks_reach_past_8191_and_keep_small_draws():
    m = verify._random_pure_mask(random.Random(1), 20000, True)
    assert m >> 8192 and m.bit_length() <= 20001
    assert not m & verify._even_mask(20001)
    e = verify._random_pure_mask(random.Random(1), 20000, False)
    assert e >> 8192 and not e & ((verify._even_mask(20001) << 1) | 1)
    # a draw is the raw random bits under the alternating byte patterns, so
    # the seeded claims draw the same forms at every degree they use
    odd_bytes = int.from_bytes(b"\xaa" * 1024, "little")
    even_bytes = int.from_bytes(b"\x55" * 1024, "little") & ~1
    for deg in (63, 199, 512, 1024, 2048):
        assert verify._random_pure_mask(random.Random(deg), deg, True) == (
            random.Random(deg).getrandbits(deg + 1) & odd_bytes
        )
        assert verify._random_pure_mask(random.Random(deg), deg, False) == (
            random.Random(deg).getrandbits(deg + 1) & even_bytes
        )


@pytest.mark.parametrize("p, k, claim_id", [(3, 3, "t3-image-structure"), (5, 5, "t5-image-structure")])
def test_structure_sweep_fails_on_one_flipped_image_bit(monkeypatch, p, k, claim_id):
    # T_p(Delta^p) = Delta, packed as bit 0 on the class p*p mod 8 = 1; with
    # that bit flipped the image vanishes although n3(3) = 1 and n5(5) = 1.
    # The sweeps read every image from the odd stream, where k is value (k-1)/2
    packed_stream = fast._packed_stream

    def flipped(cp, kmax):
        for j, packed in enumerate(packed_stream(cp, kmax)):
            yield packed ^ 1 if (cp.p, j) == (p, (k - 1) // 2) else packed

    monkeypatch.setattr(fast, "_packed_stream", flipped)
    monkeypatch.setitem(verify.SUITES, "sweeps", ("t3-image-structure", "t5-image-structure"))
    report = run_suite("sweeps", VerifyConfig(kmax=200))
    status = {c.claim_id: c for c in report.claims}
    assert not status[claim_id].ok
    assert status[claim_id].detail == f"odd image vanishes at k={k}"
    other = "t5-image-structure" if p == 3 else "t3-image-structure"
    assert status[other].ok


@pytest.mark.parametrize("p, k, e", [(3, 9, 9), (41, 51, 97)])
def test_triangular_nilpotent_fails_on_an_image_at_or_above_its_own_index(monkeypatch, p, k, e):
    # x^e with odd e >= k stays in the odd basis but puts a bit of row
    # (k - 1) / 2 on or above the diagonal
    naive_range = naive._naive_monomial_range

    def corrupted(q, kmax, *, step=1):
        # item k // step is the image of Delta^k, k odd, at either step
        images = naive_range(q, kmax, step=step)
        if q == p:
            images[k // step] = images[k // step] + monomial(e)
        return images

    monkeypatch.setattr(naive, "_naive_monomial_range", corrupted)
    with pytest.raises(AssertionError, match=f"^matrix not triangular at p={p}$"):
        verify._REGISTRY["triangular-nilpotent"](VerifyConfig())


def test_report_line_keeps_the_range_readable():
    report = verify.VerificationReport([
        verify.ClaimResult("t3-table", "k in {0,1,3,...,21}", True, 0.4237),
    ])
    assert report.lines() == ["claim=t3-table range=k_in_{0,1,3,...,21} status=pass ms=0.42"]


@pytest.mark.parametrize("r", [211, 212])
def test_naive_fast_agree_sees_the_last_relation_coefficients(monkeypatch, r):
    # at p=211 the powers k <= 200 reach neither s_211 nor s_212; under --long
    # they run to k = p + 34, where a flip in either shows
    p = 211
    s = list(verify.cached_charpoly(p).s)
    s[r - 1] = DeltaPoly(s[r - 1].mask ^ (1 << (p * r) % 8))
    flipped = CharPoly(p, tuple(s))
    monkeypatch.setattr(verify, "_checked_primes", lambda n: [p])
    monkeypatch.setattr(verify, "cached_charpoly", lambda q: flipped)
    with pytest.raises(AssertionError, match=f"monomial routes disagree at p={p}"):
        verify._REGISTRY["naive-fast-agree"](VerifyConfig(pmax=500, long=True))


def test_naive_fast_agree_sees_one_flipped_stream_image(monkeypatch):
    # the table's images stay clean, so only the stream comparison sees the flip
    stream = verify.iter_hecke_fast

    def corrupted(cp, kmax):
        for k, image in enumerate(stream(cp, kmax)):
            yield image + DeltaPoly(1 << 2) if cp.p == 13 and k == 150 else image

    monkeypatch.setattr(verify, "iter_hecke_fast", corrupted)
    with pytest.raises(AssertionError, match="^stream and naive images disagree at p=13$"):
        verify._REGISTRY["naive-fast-agree"](VerifyConfig(pmax=13))


def test_naive_fast_agree_range_names_the_power_bound(monkeypatch):
    monkeypatch.setattr(verify, "_checked_primes", lambda n: [211])
    assert verify._REGISTRY["naive-fast-agree"](VerifyConfig(pmax=500, long=True)) == (
        "p<=500, k<=max(200,p+34), 200 random forms per prime, 50 above p=31"
    )


@pytest.mark.parametrize("r, j, detail", [
    # X^1 Y^1 keeps every structural invariant, so only the residual sees it
    (263, 1, "relation residual nonzero at p=263"),
    # off the diagonal: X^7 Y^167 and its mirror X^167 Y^7 no longer match
    (97, 7, r"\['symmetry'\] at p=263"),
])
def test_relation_structure_reaches_past_257(monkeypatch, r, j, detail):
    p = 263
    s = list(verify.cached_charpoly(p).s)
    assert j % 8 == (p * r) % 8 and j <= r  # in class, within the degree bound
    s[r - 1] = DeltaPoly(s[r - 1].mask ^ (1 << j))
    flipped = CharPoly(p, tuple(s))
    # only p itself, and only if the claim's range reaches it
    monkeypatch.setattr(verify, "_checked_primes", lambda n: [p] if n >= p else [])
    monkeypatch.setattr(verify, "cached_charpoly", lambda q: flipped)
    claim = verify._REGISTRY["relation-structure"]
    with pytest.raises(AssertionError, match=detail):
        claim(VerifyConfig(pmax=500, long=True))
    assert claim(VerifyConfig(pmax=262, long=True)) == "p<=262, residual to 8(p+1)^2"


def test_dominant_product_checks_1000_pairs_from_its_pool(monkeypatch):
    claim = verify._REGISTRY["dominant-product"]
    assert claim(VerifyConfig()) == (
        "1000 admissible pairs from a pool of 600 random forms, deg<=512"
    )
    # a pool of one repeated Delta^2 holds no admissible pair
    monkeypatch.setattr(verify, "_random_sparse_pure", lambda rng, max_deg: DeltaPoly(1 << 2))
    with pytest.raises(AssertionError, match="only 0 admissible pairs in a pool of 600"):
        claim(VerifyConfig())


# (claim, entry k, 0 for n3 / 1 for n5, change, the failure it must report);
# every bound mutation sits on a tight point of the bound it breaks
_CODE_MUTATIONS = [
    ("code-parity-table", 3, 0, 1, "n3 parity table fails"),
    ("odd-step-invariance", 3, 0, 1, "n3 changes from 2l to 2l+1"),
    ("code-doubling-rules", 3, 0, 1, "2k rule fails, k odd"),
    ("h-subadditive", 3, 0, 1, "mixed bound fails near k=1"),
    ("h-increments", 3, 0, 1, "h(k+1) != h(k) for even k"),
    ("h-disjoint-support", 3, 0, 1, "disjoint additivity fails near k=1"),
    ("g-two-sided-bounds", 5, 1, 1, "lower tightness set differs"),
    ("g-two-sided-bounds", 5, 1, -1, "lower bound fails"),
    ("g-two-sided-bounds", 15, 0, 1, "upper bound fails"),
    ("g-two-sided-bounds", 15, 0, -1, "upper tightness set differs"),
    ("n3-upper-bound", 11, 0, 1, "n3 bound fails"),
    ("n3-upper-bound", 11, 0, -1, "n3 tightness set differs"),
    ("n5-upper-bound", 21, 1, 1, "n5 bound fails"),
    ("n5-upper-bound", 21, 1, -1, "n5 tightness set differs"),
]


@pytest.mark.parametrize(
    "claim_id, k, which, change, detail", _CODE_MUTATIONS,
    ids=[f"{c}-{'n3n5'[2 * w:2 * w + 2]}({k}){d:+d}" for c, k, w, d, _ in _CODE_MUTATIONS],
)
def test_code_claims_fail_on_one_corrupted_code(monkeypatch, claim_id, k, which, change, detail):
    claim = verify._REGISTRY[claim_id]
    code_arrays = verify.code_arrays

    def corrupted(n):
        arrays = code_arrays(n)
        arrays[which][k] += change
        return arrays

    monkeypatch.setattr(verify, "code_arrays", corrupted)
    with pytest.raises(AssertionError) as failure:
        claim(VerifyConfig())
    assert str(failure.value) == detail


def test_structure_sweeps_fail_above_the_key_table(monkeypatch):
    with pytest.raises(AssertionError, match="k<=65536 is above the domination key table's cap"):
        next(verify._image_codes(3, 1 << 16))
    monkeypatch.setitem(verify.SUITES, "sweeps", ("t3-image-structure", "t5-image-structure"))
    report = run_suite("sweeps", VerifyConfig(kmax=70000))
    status = {c.claim_id: c for c in report.claims}
    for claim_id in ("t3-image-structure", "t5-image-structure"):
        assert not status[claim_id].ok
        assert status[claim_id].detail == "k<=70000 is above the domination key table's cap"


def test_suites_keep_their_claims_in_order():
    suites = {
        "prop1": ("low-degree-closed-forms",),
        "tables": (
            "t3-table", "t5-table", "naive-fast-agree", "newton-solve-agree",
            "relation-structure", "recurrence-genfun", "series-roundtrips", "decompose-reassembly",
        ),
        "codes": (
            "code-parity-table", "odd-step-invariance", "code-doubling-rules", "h-subadditive",
            "h-increments", "h-disjoint-support", "dominant-product", "h-product-bound",
            "h-fourth-power", "order-shift-regression", "code-bijection", "h-prefix-gap",
        ),
        "shift": (
            "shift3-identities", "shift5-identities", "shift-special-values",
            "q-family-structure", "uvwy-family-structure",
        ),
        "bounds": ("g-two-sided-bounds", "n3-upper-bound", "n5-upper-bound"),
        "theorem": (
            "t3-image-structure", "t5-image-structure", "frobenius-doubling", "theta-vanishing",
            "witness-chain", "h-decrement", "dominant-code-decrement", "delta-kernel",
            "g-monotone-under-hecke", "pm1-double-decrement", "g-degree-bound",
            "g-vs-bruteforce", "triangular-nilpotent",
        ),
    }
    assert verify.SUITES == {**suites, "all": sum(suites.values(), ())}
    assert set(verify._REGISTRY) == set(verify.SUITES["all"])


@pytest.mark.parametrize("long", [False, True])
def test_claim_families_keep_their_ranges(long):
    # each family shares one body, with its members' parameters bound; the
    # shift pair is pinned by test_shift_claims_reach_n6_under_long
    bounds = "odd k<=1e6 (vector) + k<4096 (scalar)"
    ranges = {
        "t3-table": "k in {0,1,3,...,21}",
        "t5-table": "k in {0,1,3,...,21}",
        "t3-image-structure": f"k<={32999 if long else 4095}",
        "t5-image-structure": f"k<={32999 if long else 4095}",
        "g-two-sided-bounds": bounds,
        "n3-upper-bound": bounds,
        "n5-upper-bound": bounds,
    }
    cfg = VerifyConfig(long=long)
    for claim_id, want in ranges.items():
        claim = verify._REGISTRY[claim_id]
        if long and claim_id.endswith("image-structure"):
            # the sweeps to k<=32999 take about 1 s; only the range is pinned here
            claim = partial(claim.func, **{**claim.keywords, "sweep": lambda kmax: None})
        assert claim(cfg) == want, claim_id
