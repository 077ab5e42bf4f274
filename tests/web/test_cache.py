"""Unit tests for the TTL response cache."""

import pytest

from repro.obs import Observability, RequestLedger, use
from repro.web.cache import TTLCache
from repro.web.clock import SimulatedClock


@pytest.fixture()
def clock():
    return SimulatedClock()


class TestBasics:
    def test_put_get(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_miss_returns_none(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        assert cache.get("missing") is None

    def test_invalidate(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        cache.put("k", "v")
        cache.invalidate("k")
        assert cache.get("k") is None

    def test_clear(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_overwrite(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        cache.put("k", "old")
        cache.put("k", "new")
        assert cache.get("k") == "new"


class TestExpiry:
    def test_entry_expires_after_ttl(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        cache.put("k", "v")
        clock.advance(10.1)
        assert cache.get("k") is None

    def test_entry_survives_within_ttl(self, clock):
        cache = TTLCache(ttl=10.0, capacity=10, clock=clock)
        cache.put("k", "v")
        clock.advance(9.9)
        assert cache.get("k") == "v"

    def test_ttl_zero_disables_caching(self, clock):
        cache = TTLCache(ttl=0, capacity=10, clock=clock)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_ttl_none_is_immortal(self, clock):
        cache = TTLCache(ttl=None, capacity=10, clock=clock)
        cache.put("k", "v")
        clock.advance(1e9)
        assert cache.get("k") == "v"

    def test_len_evicts_expired(self, clock):
        cache = TTLCache(ttl=5.0, capacity=10, clock=clock)
        cache.put("a", 1)
        clock.advance(6.0)
        cache.put("b", 2)
        assert len(cache) == 1

    def test_negative_ttl_rejected(self, clock):
        with pytest.raises(ValueError):
            TTLCache(ttl=-1.0, capacity=10, clock=clock)


class TestCapacity:
    def test_lru_eviction(self, clock):
        cache = TTLCache(ttl=None, capacity=2, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_capacity_one(self, clock):
        cache = TTLCache(ttl=None, capacity=1, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_invalid_capacity_rejected(self, clock):
        with pytest.raises(ValueError):
            TTLCache(ttl=None, capacity=0, clock=clock)


class TestCounters:
    def test_hit_rate(self, clock):
        cache = TTLCache(ttl=None, capacity=10, clock=clock)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_hit_rate_no_queries(self, clock):
        cache = TTLCache(ttl=None, capacity=10, clock=clock)
        assert cache.hit_rate() == 0.0

    def test_get_hits_counts_hits_only(self, clock):
        """Misses are left for the ``get`` that resolves them to count.

        The ledger and the hit counter see each hit of a batched read
        once, whatever the batch size.
        """
        cache = TTLCache(ttl=5.0, capacity=10, clock=clock)
        cache.put("old", 2)
        clock.advance(6.0)
        cache.put("live", 1)
        obs = Observability()
        with use(obs), RequestLedger() as ledger:
            assert cache.get_hits(["live", "old", "missing"]) == [1, None, None]
            assert (cache.hits, cache.misses, cache.evictions_expired) == (1, 0, 0)
            assert ledger.to_dict()["caches"]["cache"]["hits"] == 1
            assert cache.get("old") is None
            assert (cache.hits, cache.misses, cache.evictions_expired) == (1, 1, 1)
            assert cache.get_hits(["live"] * 3) == [1, 1, 1]
        assert ledger.to_dict()["caches"]["cache"] == {
            "hits": 4,
            "misses": 1,
            "hit_rate": 0.8,
        }
        assert obs.metrics.counter_value("cache_hits_total", cache="cache") == 4.0
        assert obs.metrics.counter_value("cache_misses_total", cache="cache") == 1.0

    def test_peek_touches_no_counter(self, clock):
        cache = TTLCache(ttl=None, capacity=10, clock=clock)
        cache.put("k", "v")
        assert cache.peek("k") == "v"
        assert cache.peek("missing") is None
        assert (cache.hits, cache.misses) == (0, 0)


class TestEvictionCounters:
    def test_expired_on_read_counts(self, clock):
        cache = TTLCache(ttl=5.0, capacity=10, clock=clock)
        cache.put("k", "v")
        clock.advance(6.0)
        assert cache.get("k") is None
        assert cache.evictions_expired == 1
        assert cache.evictions_capacity == 0

    def test_expired_overwrite_on_put_counts(self, clock):
        """A put over a dead entry is the lazy form of an expiry drop."""
        cache = TTLCache(ttl=5.0, capacity=10, clock=clock)
        cache.put("k", "old")
        clock.advance(6.0)
        cache.put("k", "new")
        assert cache.evictions_expired == 1

    def test_live_overwrite_is_not_an_eviction(self, clock):
        cache = TTLCache(ttl=5.0, capacity=10, clock=clock)
        cache.put("k", "old")
        clock.advance(1.0)
        cache.put("k", "new")
        assert cache.evictions_expired == 0
        assert cache.evictions_capacity == 0

    def test_capacity_eviction_counts(self, clock):
        cache = TTLCache(ttl=None, capacity=2, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evictions_capacity == 1
        assert cache.evictions_expired == 0

    def test_len_sweep_counts_expired(self, clock):
        cache = TTLCache(ttl=5.0, capacity=10, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        clock.advance(6.0)
        len(cache)
        assert cache.evictions_expired == 2

    def test_stats_snapshot(self, clock):
        cache = TTLCache(ttl=5.0, capacity=2, clock=clock, name="crawler")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # capacity eviction
        cache.get("b")  # hit
        clock.advance(6.0)
        cache.get("c")  # expired on read
        stats = cache.stats()
        assert stats == {
            "name": "crawler",
            "entries": 0,
            "capacity": 2,
            "ttl": 5.0,
            "hits": 1,
            "misses": 1,
            "evictions_expired": 2,
            "evictions_capacity": 1,
        }
