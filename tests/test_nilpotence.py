import itertools
import random
from dataclasses import replace

import pytest

from hecke2 import fast, hecke, nilpotence
from hecke2.codes import NEG_INF, code, dominant_exponent, h
from hecke2.deltapoly import ZERO, DeltaPoly, decompose
from hecke2.errors import NotOddForm, WitnessFailed, ZeroPolynomial
from hecke2.gf2series import stride_bits
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
from helpers import poly, witness_mask


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
    fast._recurrence.cache_clear()
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


K5 = 687  # code (31, 1): one T_5 step, then thirty-one T_3 steps


def test_witness_fails_on_a_flipped_bit_of_a_stored_t5_image(monkeypatch, empty_store):
    # the chain runs T_5 first, on Delta^K5 alone: with the bit of the dominant
    # exponent of its image flipped, the T_3 steps carry nothing to Delta^1
    image = hecke.image_table(cached_charpoly(5), K5).apply(1 << K5)
    stored_t5_with_flip(empty_store, 1023, K5 >> 1, dominant_exponent(DeltaPoly(image)) >> 1)
    with pytest.raises(WitnessFailed, match=r"^witness T3\^31 T5\^1 left 0 instead of x\^1$"):
        apply_witness(poly(K5))
    monkeypatch.setitem(SUITES, "witness", ("witness-chain",))
    report = run_suite("witness", VerifyConfig())
    status = {c.claim_id: c for c in report.claims}
    assert not status["witness-chain"].ok
    assert status["witness-chain"].detail.startswith("witness T3^")


def test_witness_fails_on_an_image_bit_above_the_form(empty_store):
    # a bit at Delta^(K5 + 2), inside the table but above the form's degree
    stored_t5_with_flip(empty_store, 1023, K5 >> 1, (K5 + 1) >> 1)
    with pytest.raises(WitnessFailed, match=f"^T5 took the form above degree {K5}$"):
        apply_witness(poly(K5))


def single_step_witness(f: DeltaPoly) -> DeltaPoly:
    """The witness chain one T_p step at a time, by the stored tables' odd images."""
    a, b = code(dominant_exponent(f))
    out = stride_bits(f.mask, 2, 1)
    for p, times in ((5, b), (3, a)):
        if times:
            table = fast.shared_image_table(cached_charpoly(p), f.degree)
            for _ in range(times):
                out = table.apply_odd(out)
                if 2 * out.bit_length() > f.degree + 1:
                    raise WitnessFailed(f"T{p} took the form above degree {f.degree}")
    result = DeltaPoly(fast._from_odd(out, 0))
    if out != 1:
        raise WitnessFailed(f"witness T3^{a} T5^{b} left {result.render()} instead of x^1")
    return result


def outcome(witness, f: DeltaPoly):
    try:
        return witness(f).mask
    except WitnessFailed as err:
        return str(err)


def test_witness_agrees_with_single_steps_on_every_odd_power(empty_store):
    for k in range(1, 4096, 2):
        f = poly(k)
        assert apply_witness(f) == single_step_witness(f) == poly(1), k


def test_witness_agrees_with_single_steps_on_query_forms(empty_store):
    # the odd and mixed 24-term forms of the queries workload, by 2-adic part
    rng = random.Random(3)
    for odd in (True, False):
        for i in range(9):
            f = DeltaPoly(witness_mask(rng, (1023, 2047, 4095)[i % 3], 24, odd))
            for _, part in decompose(f).components:
                assert apply_witness(part) == single_step_witness(part) == poly(1)


@pytest.mark.parametrize("seed", range(4))
def test_witness_fails_as_single_steps_do_on_a_flipped_t5_image(empty_store, seed):
    # a bit above its own power set in one stored T_5 image: the chain by
    # power rows ends as the single-step chain does, with the same result or
    # the same error, on every odd power up to 1023
    rng = random.Random(seed)
    v = rng.randrange(64, 512)
    stored_t5_with_flip(empty_store, 1023, v, v + 1 + rng.randrange(8))
    for k in range(1, 1024, 2):
        assert outcome(apply_witness, poly(k)) == outcome(single_step_witness, poly(k)), k


K8 = 129  # code (8, 0): one step of T_3^8, by level 3


def held_t3_row(v: int) -> dict:
    level = fast.shared_image_table(cached_charpoly(3), K8)._levels[2]
    assert level[v] == 1  # T_3^8 takes Delta^K8 to Delta
    return level


def test_witness_fails_on_a_flipped_bit_of_a_held_power_row(empty_store):
    assert apply_witness(poly(K8)) == poly(1)
    held_t3_row(K8 >> 1)[K8 >> 1] ^= 1
    with pytest.raises(WitnessFailed, match=r"^witness T3\^8 T5\^0 left 0 instead of x\^1$"):
        apply_witness(poly(K8))


def test_witness_fails_on_a_held_power_row_above_the_form(empty_store):
    assert apply_witness(poly(K8)) == poly(1)
    held_t3_row(K8 >> 1)[K8 >> 1] ^= 1 << (K8 >> 1) + 1
    with pytest.raises(WitnessFailed, match=f"^T3 took the form above degree {K8}$"):
        apply_witness(poly(K8))


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
