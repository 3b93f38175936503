"""Unit and property tests for the modular-exponentiation kernels."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.crypto import G, P, Q, generate_keypair
from repro.common.multiexp import FixedBaseTable, WindowTableLRU, fold_twice
from repro.common.tracing import PERF

# Small fold-friendly primes (2**n - k with 2*|k| + 2 <= n).
M13 = 2**13 - 1
P25519 = 2**255 - 19
EDGE = 2**10 - 15  # 1009: |k| = 4, so 2*|k| + 2 == n exactly

# Primes the fold must refuse: k is too long for two folds to reduce.
GOLDILOCKS64 = 2**64 - 2**40 + 1
RETIRED_P = int(  # the hash-stream prime of ISSUE 17
    "a169a281adef9b98f8d8e8957987ab9d978a2eda81ad311970cff13231267520"
    "868c2436b9575891abdc75b026ba0cdd3021cbc30d8db548a61950ecfe8b8b4b"
    "8f3ad39f5c39f607e4992b9f2bb1ac2df999b20cf36689733b768342e021cbf7"
    "6e4d16d588e4a925e0bd1e836172a74dafc62379e638425fc057da9aa93e1c6f"
    "45e64078f926392db1b18db4f74613bcf5ff591ad293c6b55e48c6a3d2bd4280"
    "62063f84c3bc768775e77397ce8a0083d5cae67e8536609b029f6a4f08ab14a7",
    16,
)


def _shape(modulus: int) -> tuple[int, int, int, int]:
    """``(n, k, low, bound)``: the fold's parameters and its loose bound."""
    n = modulus.bit_length()
    k = (1 << n) - modulus
    return n, k, (1 << n) - 1, (1 << n) + (1 << (2 * k.bit_length() + 2))


class TestFold:
    """Loosely reduced times canonical, folded twice, is loosely reduced."""

    @pytest.mark.parametrize("modulus", [P, P25519, M13, EDGE])
    def test_worst_case_operands_stay_inside_the_bound(self, modulus):
        n, k, low, bound = _shape(modulus)
        a, b = bound - 1, modulus - 1
        folded = fold_twice(a * b, n, k, low)
        assert folded % modulus == a * b % modulus
        assert folded < bound

    @pytest.mark.parametrize("modulus", [P, P25519, EDGE])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_congruent_and_loosely_reduced(self, modulus, data):
        n, k, low, bound = _shape(modulus)
        a = data.draw(st.integers(min_value=0, max_value=bound - 1))
        b = data.draw(st.integers(min_value=0, max_value=modulus - 1))
        folded = fold_twice(a * b, n, k, low)
        assert folded % modulus == a * b % modulus
        assert folded < bound

    @pytest.mark.parametrize("modulus", [P, P25519, M13, EDGE])
    def test_squaring_a_loosely_reduced_value_stays_inside_the_bound(self, modulus):
        # The Horner branch squares the accumulator itself: both operands
        # loosely reduced, the product below 2**(2n+2), two folds enough.
        n, k, low, bound = _shape(modulus)
        a = bound - 1
        for _ in range(4):
            folded = fold_twice(a * a, n, k, low)
            assert folded % modulus == a * a % modulus
            assert folded < bound
            a = folded

    @pytest.mark.parametrize("modulus", [RETIRED_P, GOLDILOCKS64, 2**10 - 17])
    def test_a_modulus_without_the_shape_is_refused(self, modulus):
        with pytest.raises(ValueError, match="folding"):
            FixedBaseTable(3, modulus, 16)
        lru = WindowTableLRU(modulus, 16)
        with pytest.raises(ValueError, match="folding"):
            lru.powmod(3, 5)
        assert len(lru) == 0


class TestFixedBaseTable:
    @pytest.mark.parametrize("window", [4, 8])
    def test_matches_builtin_pow(self, window):
        _, key = generate_keypair(b"table-base")
        past_the_table = 1 << 256
        for base in (1, 2, P - 1, G, key.y):
            table = FixedBaseTable(base, P, Q.bit_length(), window=window)
            assert not table.covers(past_the_table)  # answered limb by limb
            for exponent in (0, 1, 2, 15, 16, 17, 255, Q // 3, Q - 1, Q, 2**256 - 1, past_the_table):
                assert table.pow(exponent) == pow(base, exponent, P), (base, exponent)

    @pytest.mark.parametrize("modulus", [M13, P25519, EDGE])
    def test_small_modulus(self, modulus):
        table = FixedBaseTable(7, modulus, 32)
        for exponent in range(0, 300, 7):
            assert table.pow(exponent) == pow(7, exponent, modulus)

    def test_table_entries_are_canonical(self):
        table = FixedBaseTable(G, P, 16)
        assert all(0 < entry < P for row in table._rows for entry in row)
        assert table._rows[1][1] == pow(G, 16, P)

    def test_exponent_zero_and_one(self):
        table = FixedBaseTable(5, M13, 16)
        assert table.pow(0) == 1
        assert table.pow(1) == 5

    def test_covers_reflects_table_range(self):
        table = FixedBaseTable(3, M13, 16)
        assert table.covers(0)
        assert table.covers((1 << 16) - 1)
        assert not table.covers(1 << 20)
        assert not table.covers(-1)

    def test_fallback_past_table_range(self):
        table = FixedBaseTable(3, M13, 8)
        exponent = 1 << 40
        assert table.pow(exponent) == pow(3, exponent, M13)

    @pytest.mark.parametrize("bits", [129, 256, 257, 600])
    def test_horner_over_limbs_of_a_128_bit_table(self, bits):
        _, key = generate_keypair(b"horner-base")
        table = FixedBaseTable(key.y, P, 128)
        assert len(table._rows) == 32
        for exponent in (1 << (bits - 1), (1 << bits) - 1, (1 << bits) // 3 | 1 << (bits - 1)):
            assert exponent.bit_length() == bits and not table.covers(exponent)
            before = PERF.snapshot()
            assert table.pow(exponent) == pow(key.y, exponent, P)
            # One windowed exponentiation however many limbs, never pow().
            assert PERF.delta_since(before) == {"modexp_windowed": 1}

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            FixedBaseTable(3, M13, 8).pow(-1)

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(min_value=2, max_value=EDGE - 1),
        exponent=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_property_agrees_with_pow(self, base, exponent):
        table = FixedBaseTable(base, EDGE, 32)
        assert table.pow(exponent) == pow(base, exponent, EDGE)


class TestWindowTableLRU:
    def test_builds_table_on_first_use(self):
        lru = WindowTableLRU(P, 16, maxsize=4)
        assert G not in lru
        assert lru.powmod(G, 3) == pow(G, 3, P)
        assert G in lru and len(lru) == 1

    def test_two_lrus_answer_for_their_own_modulus(self):
        # Tables are keyed by base: only binding the modulus at
        # construction keeps a hot base from answering for another one.
        small, large = WindowTableLRU(M13, 16), WindowTableLRU(P25519, 16)
        for exponent in (5, 600):
            assert small.powmod(3, exponent) == pow(3, exponent, M13)
            assert large.powmod(3, exponent) == pow(3, exponent, P25519)

    def test_lru_eviction_order(self):
        lru = WindowTableLRU(M13, 16, maxsize=2)
        lru.powmod(3, 5)
        lru.powmod(5, 5)
        lru.powmod(3, 6)  # refresh 3
        lru.powmod(7, 5)  # evicts 5, the least recent
        assert 3 in lru
        assert 7 in lru
        assert 5 not in lru
        assert len(lru) == 2

    def test_an_evicted_base_is_rebuilt_on_its_next_use(self):
        lru = WindowTableLRU(M13, 16, maxsize=1)
        lru.powmod(3, 5)
        lru.powmod(5, 5)  # evicts 3
        assert 3 not in lru
        assert lru.powmod(3, 9) == pow(3, 9, M13)
        assert 3 in lru and 5 not in lru

    def test_results_correct_on_first_and_later_uses(self):
        lru = WindowTableLRU(M13, 16, maxsize=8)
        for exponent in (9, 10, 11, 12):
            assert lru.powmod(11, exponent) == pow(11, exponent, M13)

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            WindowTableLRU(M13, 16, maxsize=0)

    def test_clear(self):
        lru = WindowTableLRU(M13, 16, maxsize=4)
        lru.powmod(3, 5)
        lru.clear()
        assert len(lru) == 0
