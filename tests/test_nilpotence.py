import itertools
from dataclasses import replace

import pytest

from hecke2 import fast, hecke, nilpotence
from hecke2.codes import NEG_INF, code, h
from hecke2.deltapoly import ZERO, DeltaPoly
from hecke2.errors import NotOddForm, WitnessFailed, ZeroPolynomial
from hecke2.hecke import CharPoly, cached_charpoly, hecke_fast
from hecke2.nilpotence import (
    apply_witness,
    check_bounds_g,
    check_bounds_n3,
    check_bounds_n5,
    g_bruteforce,
    g_general,
    g_odd,
    render_report,
)
from hecke2.verify import SUITES, VerifyConfig, run_suite
from helpers import poly


def test_g_odd_examples():
    rep = g_odd(poly(1))
    assert rep.g == 1 and rep.witness == (0, 0)
    assert g_odd(poly(5, 3, 1)).g == 2
    assert g_odd(poly(7, 5, 3, 1)).g == 3
    rep = g_odd(poly(15))
    assert rep.g == 5 and rep.h == 4 and rep.witness == (3, 1)
    assert rep.dominant_exponent == 15


def test_g_odd_low_degree_families():
    # degree <= 7 values implied by the low-degree closed forms
    assert g_odd(ZERO).g == NEG_INF
    assert g_odd(poly(3)).g == 2
    assert g_odd(poly(3, 1)).g == 2
    for bits in itertools.product((0, 1), repeat=2):
        exps = [5] + [e for e, b in zip((3, 1), bits) if b]
        assert g_odd(poly(*exps)).g == 2
    for bits in itertools.product((0, 1), repeat=3):
        exps = [7] + [e for e, b in zip((5, 3, 1), bits) if b]
        assert g_odd(poly(*exps)).g == 3


def test_g_odd_rejects_even_exponents():
    with pytest.raises(NotOddForm):
        g_odd(poly(2))


def test_g_general_examples():
    assert g_general(poly(2)).g == 1
    assert g_general(poly(0)).g == 1
    assert g_general(poly(3, 6)).g == 2
    assert g_general(ZERO).g == NEG_INF
    rep = g_general(poly(3, 6))
    assert rep.per_component is not None
    assert [s for s, _ in rep.per_component] == [0, 1]


def test_g_general_matches_bruteforce_on_mixed_forms():
    primes = (3, 5, 7)
    assert g_bruteforce(poly(3, 6), primes) == 2
    for mask in range(1, 1 << 7):
        f = DeltaPoly(mask)
        assert g_general(f).g == g_bruteforce(f, (3, 5, 7, 11, 13))


def test_apply_witness():
    assert apply_witness(poly(15)) == poly(1)
    assert apply_witness(poly(1)) == poly(1)
    assert apply_witness(poly(17)) == poly(1)
    with pytest.raises(ZeroPolynomial):
        apply_witness(ZERO)
    with pytest.raises(NotOddForm):
        apply_witness(poly(2))


@pytest.fixture
def empty_store(monkeypatch):
    # the shared image tables start empty, so a test sees only what it builds
    store = {}
    monkeypatch.setattr(fast, "_shared_tables", store)
    return store


def test_witnesses_stream_each_head_once(monkeypatch, empty_store):
    # 1023 builds both tables, 4095 regrows them, 2047 and 4095 reuse them.
    # Each relation streams its head once, to 8p + 7, and each build runs
    # its own tail octets, (kmax >> 3) - p of them
    fast._head_octets.cache_clear()
    built = []
    steps = []
    stream = fast._packed_stream

    def counted(cp, kmax):
        built.append((cp.p, kmax))
        return stream(cp, kmax)

    class CountingWindow(fast.deque):
        def append(self, octet):
            steps.append(octet)
            super().append(octet)

    monkeypatch.setattr(fast, "_packed_stream", counted)
    monkeypatch.setattr(fast, "deque", CountingWindow)
    for k in (1023, 4095, 2047, 4095):
        assert apply_witness(poly(k, 5, 3)) == poly(1), k
    assert sorted(built) == [(3, 31), (5, 47)]
    assert len(steps) == sum((kmax >> 3) - p for kmax in (1023, 4095) for p in (3, 5))
    assert {cp.p: table.kmax for cp, table in empty_store.items()} == {3: 4095, 5: 4095}


def test_witness_is_never_served_the_table_of_another_relation(monkeypatch, empty_store):
    f = poly(1023, 5, 3)
    assert apply_witness(f) == poly(1)
    # s_1 = X^3 at p=3: on its class mod 8, but above the degree bound, so
    # T_3 raises the degree
    true3 = cached_charpoly(3)
    s = list(true3.s)
    s[0] = DeltaPoly(s[0].mask ^ 1 << 3)
    flipped = CharPoly(3, tuple(s))
    monkeypatch.setattr(
        nilpotence, "cached_charpoly", lambda p: flipped if p == 3 else cached_charpoly(p)
    )
    with pytest.raises(WitnessFailed, match="T3 took the form above degree 1023"):
        apply_witness(f)
    assert flipped in empty_store and true3 in empty_store


def stored_t5_with_flip(store, kmax: int, v: int, bit: int):
    """Put into the store a T_5 table to ``kmax`` with bit ``bit`` of odd image v flipped."""
    cp5 = cached_charpoly(5)
    table = hecke.image_table(cp5, kmax)
    odd = list(table.odd)
    odd[v] ^= 1 << bit
    store[cp5] = replace(table, odd=tuple(odd))


def t5_input_of(k: int) -> int:
    """The odd mask that the one T_5 step of the witness of Delta^k reads."""
    a, b = code(k)
    assert b == 1
    table3 = hecke.image_table(cached_charpoly(3), k)
    mask = 1 << (k >> 1)
    for _ in range(a):
        mask = table3.apply_odd(mask)
    return mask


K5 = 687  # code (31, 1): thirty-one T_3 steps, then one T_5 step


def test_witness_fails_on_a_flipped_bit_of_a_stored_t5_image(monkeypatch, empty_store):
    # the one T_5 step reads the image of each set bit of its input; a flipped
    # bit 0 of one of them moves the result off Delta^1
    v = t5_input_of(K5).bit_length() - 1
    stored_t5_with_flip(empty_store, 1023, v, 0)
    with pytest.raises(WitnessFailed, match=r"^witness T3\^31 T5\^1 left .* instead of x\^1$"):
        apply_witness(poly(K5))
    monkeypatch.setitem(SUITES, "witness", ("witness-chain",))
    report = run_suite("witness", VerifyConfig())
    status = {c.claim_id: c for c in report.claims}
    assert not status["witness-chain"].ok
    assert status["witness-chain"].detail.startswith("witness T3^")


def test_witness_fails_on_an_image_bit_above_the_form(empty_store):
    # a bit at Delta^(K5 + 2), inside the table but above the form's degree
    v = t5_input_of(K5).bit_length() - 1
    stored_t5_with_flip(empty_store, 1023, v, (K5 + 1) >> 1)
    with pytest.raises(WitnessFailed, match=f"^T5 took the form above degree {K5}$"):
        apply_witness(poly(K5))


def test_witness_chain_against_operator_count():
    # the witness length matches g - 1 applications ending at the generator
    f = poly(19)
    rep = g_odd(f)
    g3, g5 = rep.witness
    cur = f
    for p, times in ((3, g3), (5, g5)):
        for _ in range(times):
            cur = hecke_fast(cur, cached_charpoly(p))
    assert cur == poly(1)
    assert g3 + g5 + 1 == rep.g


def test_g_bruteforce_examples():
    assert g_bruteforce(poly(7), (3, 5)) == 3
    assert g_bruteforce(ZERO, (3, 5)) == NEG_INF
    assert h(63) == 1 + 1 + 2 + 2 + 4
    assert g_bruteforce(poly(63), (3, 5, 7, 11, 13)) == 11


def test_g_bruteforce_validates_primes():
    with pytest.raises(ValueError):
        g_bruteforce(poly(3), ())
    with pytest.raises(ValueError):
        g_bruteforce(poly(3), (3, 4))


def test_g_bruteforce_restricted_set_is_lower_bound():
    # without 3 and 5 available the depth can only drop
    f = poly(9)
    assert g_bruteforce(f, (7,)) <= g_odd(f).g


def test_check_bounds_g():
    assert check_bounds_g(17) == (True, False)
    assert check_bounds_g(15) == (False, True)
    assert check_bounds_g(7) == (False, False)
    assert check_bounds_g(1) == (True, False)
    with pytest.raises(ValueError):
        check_bounds_g(4)


def test_check_bounds_n3_n5():
    assert check_bounds_n3(11) is True
    assert check_bounds_n3(9) is False
    assert check_bounds_n5(21) is True
    assert check_bounds_n5(9) is False
    for k in range(1, 20_000, 2):
        check_bounds_g(k)
        check_bounds_n3(k)
        check_bounds_n5(k)


def test_bound_checks_are_tight_exactly_on_the_stated_points():
    tight = {name: bound.tight(1 << 16) for name, bound in nilpotence._BOUNDS.items()}
    for k in range(1, 1 << 16, 2):
        assert check_bounds_g(k) == (k in tight["lower"], k in tight["upper"]), k
        assert check_bounds_n3(k) == (k in tight["n3"]), k
        assert check_bounds_n5(k) == (k in tight["n5"]), k


def test_render_report():
    text = render_report(g_odd(poly(15)))
    assert text == "g=5 h=4 dominant=15 code=(3,1) witness=T3^3 T5^1"
    assert render_report(g_general(ZERO)) == "g=-inf"
    mixed = render_report(g_general(poly(3, 6)))
    assert "component s=0" in mixed and "component s=1" in mixed
