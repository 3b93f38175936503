"""Unit and property tests for the modular-exponentiation kernels."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.crypto import G, P, Q
from repro.common.multiexp import FixedBaseTable, WindowTableLRU

SMALL_PRIME = 1009


class TestFixedBaseTable:
    def test_matches_builtin_pow(self):
        table = FixedBaseTable(G, P, Q.bit_length())
        for exponent in (0, 1, 2, 15, 16, 17, 255, Q - 1, Q // 3):
            assert table.pow(exponent) == pow(G, exponent, P)

    def test_small_modulus(self):
        table = FixedBaseTable(7, SMALL_PRIME, 32)
        for exponent in range(0, 300, 7):
            assert table.pow(exponent) == pow(7, exponent, SMALL_PRIME)

    def test_exponent_zero_and_one(self):
        table = FixedBaseTable(5, SMALL_PRIME, 16)
        assert table.pow(0) == 1
        assert table.pow(1) == 5

    def test_covers_reflects_table_range(self):
        table = FixedBaseTable(3, SMALL_PRIME, 16)
        assert table.covers(0)
        assert table.covers((1 << 16) - 1)
        assert not table.covers(1 << 20)
        assert not table.covers(-1)

    def test_fallback_past_table_range(self):
        table = FixedBaseTable(3, SMALL_PRIME, 8)
        exponent = 1 << 40
        assert table.pow(exponent) == pow(3, exponent, SMALL_PRIME)

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(min_value=2, max_value=SMALL_PRIME - 1),
        exponent=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_property_agrees_with_pow(self, base, exponent):
        table = FixedBaseTable(base, SMALL_PRIME, 32)
        assert table.pow(exponent) == pow(base, exponent, SMALL_PRIME)


class TestWindowTableLRU:
    def test_builds_table_only_after_threshold(self):
        lru = WindowTableLRU(maxsize=4, build_after=3)
        for use in range(1, 3):
            assert lru.powmod(G, use, P, 16) == pow(G, use, P)
            assert not lru.has_table(G)
        assert lru.powmod(G, 3, P, 16) == pow(G, 3, P)
        assert lru.has_table(G)

    def test_lru_eviction_order(self):
        lru = WindowTableLRU(maxsize=2, build_after=1)
        lru.powmod(3, 5, SMALL_PRIME, 16)
        lru.powmod(5, 5, SMALL_PRIME, 16)
        lru.powmod(3, 6, SMALL_PRIME, 16)  # refresh 3
        lru.powmod(7, 5, SMALL_PRIME, 16)  # evicts 5, the least recent
        assert lru.has_table(3)
        assert lru.has_table(7)
        assert not lru.has_table(5)
        assert len(lru) == 2

    def test_cold_entries_participate_in_eviction(self):
        # Use-counters compete for the same LRU slots as built tables:
        # the oldest cold base is evicted first, losing its count.
        lru = WindowTableLRU(maxsize=2, build_after=5)
        for base in (3, 5, 7):
            lru.powmod(base, 2, SMALL_PRIME, 16)
        assert len(lru) == 2
        assert 3 not in lru._entries  # the least-recent cold entry
        assert {5, 7} <= set(lru._entries)
        assert lru.table_count() == 0

    def test_hot_table_evicted_when_least_recent(self):
        lru = WindowTableLRU(maxsize=2, build_after=1)
        lru.powmod(3, 5, SMALL_PRIME, 16)   # builds a table for 3
        lru.powmod(5, 5, SMALL_PRIME, 16)   # builds a table for 5
        lru.powmod(5, 6, SMALL_PRIME, 16)   # table hit refreshes 5
        lru.powmod(7, 5, SMALL_PRIME, 16)   # evicts 3 despite its table
        assert not lru.has_table(3)
        assert lru.has_table(5) and lru.has_table(7)
        assert lru.table_count() == 2

    def test_use_counts_tracked_per_base(self):
        lru = WindowTableLRU(maxsize=4, build_after=3)
        for exponent in (4, 5):
            lru.powmod(3, exponent, SMALL_PRIME, 16)
            lru.powmod(5, exponent, SMALL_PRIME, 16)
        lru.powmod(3, 6, SMALL_PRIME, 16)  # third use: only 3 goes hot
        assert lru.has_table(3)
        assert not lru.has_table(5)
        assert lru.table_count() == 1
        assert len(lru) == 2

    def test_results_correct_before_and_after_build(self):
        lru = WindowTableLRU(maxsize=8, build_after=2)
        for exponent in (9, 10, 11, 12):
            assert lru.powmod(11, exponent, SMALL_PRIME, 16) == pow(11, exponent, SMALL_PRIME)

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            WindowTableLRU(maxsize=0)

    def test_clear(self):
        lru = WindowTableLRU(maxsize=4, build_after=1)
        lru.powmod(3, 5, SMALL_PRIME, 16)
        lru.clear()
        assert len(lru) == 0
