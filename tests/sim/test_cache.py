"""Tests for the set-associative MESI cache arrays."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.cache import Cache, CacheConfig, EXCLUSIVE, MODIFIED, SHARED


def small_cache(assoc=2, sets=4, line=64):
    return Cache(CacheConfig(capacity_bytes=line * assoc * sets, line_bytes=line, associativity=assoc))


class TestCacheConfig:
    def test_table1_l1(self):
        config = CacheConfig(64 * 1024, 64, 2)
        assert config.n_sets == 512
        assert config.line_shift == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(0, 64, 2)
        with pytest.raises(ConfigurationError):
            CacheConfig(64 * 1024, 63, 2)  # not a power of two
        with pytest.raises(ConfigurationError):
            CacheConfig(1000, 64, 2)  # not divisible


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = small_cache()
        line = cache.line_address(0x1000)
        assert cache.lookup(line) is None
        cache.insert(line, EXCLUSIVE)
        assert cache.lookup(line) == EXCLUSIVE
        assert cache.hits == 1
        assert cache.misses == 1

    def test_line_granularity(self):
        cache = small_cache(line=64)
        a = cache.line_address(0x1000)
        b = cache.line_address(0x1004)
        assert a == b  # same 64 B line

    def test_lru_eviction_order(self):
        cache = small_cache(assoc=2, sets=1)
        cache.insert(1, SHARED)
        cache.insert(2, SHARED)
        cache.lookup(1)  # touch 1: now 2 is LRU
        victim = cache.insert(3, SHARED)
        assert victim == (2, SHARED)

    def test_dirty_eviction_counts_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.insert(1, MODIFIED)
        victim = cache.insert(2, SHARED)
        assert victim == (1, MODIFIED)
        assert cache.writebacks == 1

    def test_reinsert_same_line_no_eviction(self):
        cache = small_cache(assoc=1, sets=1)
        cache.insert(1, SHARED)
        assert cache.insert(1, MODIFIED) is None
        assert cache.probe(1) == MODIFIED

    def test_sets_isolated(self):
        cache = small_cache(assoc=1, sets=2)
        cache.insert(0, SHARED)  # set 0
        cache.insert(1, SHARED)  # set 1
        assert cache.resident_lines() == 2


class TestStateManagement:
    def test_set_state(self):
        cache = small_cache()
        cache.insert(5, EXCLUSIVE)
        cache.set_state(5, MODIFIED)
        assert cache.probe(5) == MODIFIED

    def test_set_state_missing_line_rejected(self):
        cache = small_cache()
        with pytest.raises(ConfigurationError):
            cache.set_state(99, SHARED)

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(5, MODIFIED)
        assert cache.invalidate(5) == MODIFIED
        assert cache.probe(5) is None
        assert cache.invalidate(5) is None  # idempotent

    def test_probe_does_not_count(self):
        cache = small_cache()
        cache.probe(1)
        assert cache.accesses == 0


class TestStatistics:
    def test_miss_rate(self):
        cache = small_cache()
        assert cache.miss_rate() == 0.0
        cache.lookup(1)
        cache.insert(1, SHARED)
        cache.lookup(1)
        assert cache.miss_rate() == pytest.approx(0.5)

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200
        )
    )
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = small_cache(assoc=2, sets=4)
        for addr in addresses:
            line = cache.line_address(addr)
            if cache.lookup(line) is None:
                cache.insert(line, SHARED)
        assert cache.resident_lines() <= 8

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200
        )
    )
    @settings(max_examples=30)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = small_cache()
        for addr in addresses:
            line = cache.line_address(addr)
            if cache.lookup(line) is None:
                cache.insert(line, SHARED)
        assert cache.hits + cache.misses == len(addresses)


class TestEvictionEdgeCases:
    """LRU edges around insert/invalidate the full runs rarely hit."""

    def test_reinsert_refreshes_lru_position(self):
        cache = small_cache(assoc=2, sets=1)
        cache.insert(1, SHARED)
        cache.insert(2, SHARED)
        cache.insert(1, SHARED)  # refresh 1: now 2 is LRU
        victim = cache.insert(3, SHARED)
        assert victim == (2, SHARED)

    def test_invalidate_frees_the_slot(self):
        cache = small_cache(assoc=1, sets=1)
        cache.insert(1, MODIFIED)
        cache.invalidate(1)
        assert cache.insert(2, SHARED) is None  # no eviction needed
        assert cache.evictions == 0

    def test_invalidated_dirty_line_is_not_a_writeback(self):
        # Invalidation transfers responsibility (the requester or the L2
        # takes the data); only capacity evictions count writebacks.
        cache = small_cache(assoc=1, sets=1)
        cache.insert(1, MODIFIED)
        cache.invalidate(1)
        assert cache.writebacks == 0

    def test_clean_eviction_counts_no_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.insert(1, EXCLUSIVE)
        victim = cache.insert(2, SHARED)
        assert victim == (1, EXCLUSIVE)
        assert cache.evictions == 1
        assert cache.writebacks == 0

    def test_eviction_picks_oldest_of_full_set(self):
        cache = small_cache(assoc=4, sets=1)
        for line in (1, 2, 3, 4):
            cache.insert(line, SHARED)
        cache.lookup(1)
        cache.lookup(2)
        cache.lookup(3)
        victim = cache.insert(5, SHARED)
        assert victim == (4, SHARED)

    def test_invalidate_wrong_set_untouched(self):
        cache = small_cache(assoc=1, sets=2)
        cache.insert(0, SHARED)  # set 0
        assert cache.invalidate(1) is None  # set 1: absent
        assert cache.probe(0) == SHARED
