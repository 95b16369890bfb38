"""Cache geometry and functional cache simulator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.caches import CacheGeometry, knl_l1d, knl_l2
from repro.util.units import KiB, MiB
from tests.oracles.cachesim import SetAssociativeCache


class TestGeometry:
    def test_knl_l1(self):
        l1 = knl_l1d()
        assert l1.capacity_bytes == 32 * KiB
        assert l1.num_lines == 512

    def test_knl_l2(self):
        l2 = knl_l2()
        assert l2.capacity_bytes == 1 * MiB
        assert l2.load_to_use_ns == pytest.approx(10.0)

    def test_sets_times_ways_is_lines(self):
        g = CacheGeometry("t", 8192, associativity=4)
        assert g.num_sets * g.associativity == g.num_lines

    def test_direct_mapped_flag(self):
        assert CacheGeometry("dm", 4096, associativity=1).is_direct_mapped
        assert not knl_l2().is_direct_mapped

    def test_capacity_line_divisibility(self):
        with pytest.raises(ValueError):
            CacheGeometry("bad", 100, line_bytes=64)

    def test_ways_divisibility(self):
        with pytest.raises(ValueError):
            CacheGeometry("bad", 64 * 3, associativity=2)


def small_cache(assoc: int = 2, lines: int = 16) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheGeometry("t", lines * 64, associativity=assoc)
    )


class TestAccess:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert c.access(0) is False
        assert c.access(0) is True
        assert c.access(63) is True  # same line

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            small_cache().access(-1)

    def test_direct_mapped_conflict(self):
        c = small_cache(assoc=1, lines=4)  # 4 sets
        c.access(0)
        c.access(4 * 64)  # maps to the same set, evicts
        assert c.access(0) is False

    def test_associative_avoids_conflict(self):
        c = small_cache(assoc=2, lines=8)  # 4 sets x 2 ways
        c.access(0)
        c.access(4 * 64)
        assert c.access(0) is True

    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, lines=2)  # 1 set, 2 ways
        c.access(0)
        c.access(64)
        c.access(0)       # 64 is now LRU
        c.access(2 * 64)  # evicts 64
        assert c.contains(0)
        assert not c.contains(64)

    def test_streaming_larger_than_cache_all_misses(self):
        c = small_cache(assoc=2, lines=16)
        addresses = np.arange(0, 64 * 64, 64)
        hits = c.access_block(addresses)
        assert not hits.any()

    def test_resident_working_set_all_hits_second_pass(self):
        c = small_cache(assoc=2, lines=16)
        addresses = np.arange(0, 8 * 64, 64)
        c.access_block(addresses)
        assert c.access_block(addresses).all()


class TestStats:
    def test_conservation(self):
        c = small_cache()
        rng = np.random.default_rng(0)
        c.access_block(rng.integers(0, 64 * 64, size=500))
        assert c.stats.hits + c.stats.misses == c.stats.accesses == 500

    def test_flush_keeps_stats(self):
        c = small_cache()
        c.access(0)
        c.flush()
        assert c.stats.accesses == 1
        assert c.occupancy() == 0
        assert c.access(0) is False

    def test_hit_rate_zero_when_empty(self):
        assert small_cache().stats.hit_rate == 0.0


class TestBlockEquivalence:
    @given(
        st.lists(st.integers(min_value=0, max_value=32 * 64 - 1), min_size=1,
                 max_size=200)
    )
    @settings(max_examples=25, deadline=None)
    def test_block_matches_scalar_path(self, addresses):
        """access_block must be semantically identical to access() calls."""
        a = small_cache(assoc=2, lines=8)
        b = small_cache(assoc=2, lines=8)
        scalar_hits = [a.access(addr) for addr in addresses]
        block_hits = b.access_block(np.array(addresses))
        assert scalar_hits == list(block_hits)
        assert a.stats.hits == b.stats.hits
        assert a.stats.evictions == b.stats.evictions


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=4).map(lambda w: 2**(w - 1)),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                 max_size=300),
    )
    @settings(max_examples=25, deadline=None)
    def test_occupancy_bounded_and_conserved(self, assoc, addresses):
        c = small_cache(assoc=assoc, lines=16)
        c.access_block(np.array(addresses))
        assert c.occupancy() <= c.geometry.num_lines
        assert c.stats.hits + c.stats.misses == len(addresses)
        # Misses that evicted plus occupancy equals total distinct fills.
        assert c.stats.misses == c.stats.evictions + c.occupancy()
