import pytest

from hecke2 import verify
from hecke2.deltapoly import DeltaPoly
from hecke2.errors import WitnessFailed
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
