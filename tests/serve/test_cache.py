"""The TTL+LRU result cache, driven by an injected clock."""

from __future__ import annotations

import pytest

from repro.serve.cache import TTLCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


def test_hit_and_miss_accounting(clock):
    cache: TTLCache[str] = TTLCache(4, ttl_s=10.0, clock=clock)
    assert cache.get("a") is None
    cache.put("a", "va")
    assert cache.get("a") == "va"
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (1, 1)
    assert cache.hit_rate == 0.5


def test_entries_expire_after_ttl(clock):
    cache: TTLCache[str] = TTLCache(4, ttl_s=10.0, clock=clock)
    cache.put("a", "va")
    clock.now = 9.999
    assert cache.get("a") == "va"
    clock.now = 10.0
    assert cache.get("a") is None
    assert cache.expirations == 1
    assert len(cache) == 0


def test_lru_eviction_prefers_recently_used(clock):
    cache: TTLCache[str] = TTLCache(2, ttl_s=None, clock=clock)
    cache.put("a", "va")
    cache.put("b", "vb")
    assert cache.get("a") == "va"  # refresh a's recency
    cache.put("c", "vc")  # evicts b, the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == "va"
    assert cache.get("c") == "vc"
    assert cache.evictions == 1


def test_no_ttl_means_pure_lru(clock):
    cache: TTLCache[str] = TTLCache(4, ttl_s=None, clock=clock)
    cache.put("a", "va")
    clock.now = 1e9
    assert cache.get("a") == "va"


def test_zero_entries_disables_the_cache(clock):
    cache: TTLCache[str] = TTLCache(0, ttl_s=None, clock=clock)
    cache.put("a", "va")
    assert cache.get("a") is None
    assert len(cache) == 0
    assert cache.misses == 1


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        TTLCache(-1)
    with pytest.raises(ValueError):
        TTLCache(4, ttl_s=0.0)


def test_put_overwrites_in_place(clock):
    cache: TTLCache[str] = TTLCache(2, ttl_s=None, clock=clock)
    cache.put("a", "v1")
    cache.put("a", "v2")
    assert cache.get("a") == "v2"
    assert len(cache) == 1
