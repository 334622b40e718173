"""TieredCache: promotion, demotion, eviction, counters, disabled modes.

The cache's contract is behavioral, not structural: scan bursts must not
displace the hot set, demoted entries must survive in the cold tier, and
``cold_size=0`` must disable the whole cache (the engine's stateless
switch).  Keys are opaque bytes throughout, matching the engine's query
digests.
"""

import pytest

from repro.errors import ReproError
from repro.serving.cache import TieredCache
from repro.obs.metrics import MetricRegistry


def key(i: int) -> bytes:
    return f"k{i}".encode()


class TestBasics:
    def test_miss_then_put_then_hit(self):
        cache = TieredCache(hot_size=2, cold_size=4, promote_after=2)
        assert cache.get(key(0)) is None
        cache.put(key(0), "v0")
        assert cache.get(key(0)) == "v0"
        assert key(0) in cache
        assert len(cache) == 1

    def test_put_refreshes_existing_value_in_either_tier(self):
        cache = TieredCache(hot_size=2, cold_size=4, promote_after=1)
        cache.put(key(0), "old")
        cache.put(key(0), "new")  # cold-tier refresh
        assert cache.get(key(0)) == "new"  # this hit promotes
        cache.put(key(0), "newer")  # hot-tier refresh
        assert cache.get(key(0)) == "newer"
        assert cache.stats()["hot_entries"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"hot_size": -1}, {"cold_size": -1}, {"promote_after": 0}],
        ids=["hot", "cold", "promote"],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            TieredCache(**kwargs)

    def test_clear_empties_both_tiers(self):
        cache = TieredCache(hot_size=2, cold_size=4, promote_after=1)
        cache.put(key(0), "a")
        cache.put(key(1), "b")
        cache.get(key(0))  # promote
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key(0)) is None and cache.get(key(1)) is None


class TestPromotion:
    def test_entry_promotes_only_after_enough_cold_hits(self):
        cache = TieredCache(hot_size=2, cold_size=4, promote_after=2)
        cache.put(key(0), "v")
        cache.get(key(0))  # 1st cold hit: not yet
        assert cache.stats()["hot_entries"] == 0
        cache.get(key(0))  # 2nd cold hit: promoted
        assert cache.stats() == {
            "hot_entries": 1, "cold_entries": 0,
            "hot_size": 2, "cold_size": 4, "promote_after": 2,
        }

    def test_scan_burst_cannot_displace_the_hot_set(self):
        # The property the tier split exists for: cold one-off traffic
        # churns the cold LRU but a single touch never reaches the hot
        # tier, so the hot entry survives an arbitrarily long scan.
        cache = TieredCache(hot_size=1, cold_size=2, promote_after=2)
        cache.put(key(0), "hot")
        cache.get(key(0))
        cache.get(key(0))  # promoted
        for i in range(1, 50):  # scan burst of one-touch keys
            cache.put(key(i), f"cold{i}")
            cache.get(key(i))
        assert cache.get(key(0)) == "hot"

    def test_hot_eviction_demotes_to_cold_instead_of_dropping(self):
        cache = TieredCache(hot_size=1, cold_size=4, promote_after=1)
        cache.put(key(0), "first")
        cache.get(key(0))  # promote first
        cache.put(key(1), "second")
        cache.get(key(1))  # promote second -> first demoted to cold
        stats = cache.stats()
        assert stats["hot_entries"] == 1 and stats["cold_entries"] == 1
        assert cache.get(key(0)) == "first"  # still cached, cold tier

    def test_hot_size_zero_degenerates_to_plain_lru(self):
        cache = TieredCache(hot_size=0, cold_size=2, promote_after=1)
        cache.put(key(0), "a")
        for _ in range(5):
            assert cache.get(key(0)) == "a"  # hits never promote
        assert cache.stats()["hot_entries"] == 0


class TestEviction:
    def test_cold_lru_evicts_oldest_beyond_capacity(self):
        cache = TieredCache(hot_size=0, cold_size=2, promote_after=2)
        cache.put(key(0), "a")
        cache.put(key(1), "b")
        cache.put(key(2), "c")  # evicts key 0
        assert cache.get(key(0)) is None
        assert cache.get(key(1)) == "b" and cache.get(key(2)) == "c"

    def test_cold_hit_refreshes_lru_position(self):
        cache = TieredCache(hot_size=0, cold_size=2, promote_after=5)
        cache.put(key(0), "a")
        cache.put(key(1), "b")
        cache.get(key(0))  # key 0 is now the freshest
        cache.put(key(2), "c")  # evicts key 1, not key 0
        assert cache.get(key(0)) == "a"
        assert cache.get(key(1)) is None


class TestDisabled:
    def test_cold_size_zero_disables_the_cache(self):
        cache = TieredCache(hot_size=0, cold_size=0)
        assert not cache.enabled
        cache.put(key(0), "v")  # no-op
        assert cache.get(key(0)) is None
        assert len(cache) == 0


class TestMetrics:
    def test_counters_track_tier_behavior(self):
        metrics = MetricRegistry()
        cache = TieredCache(
            hot_size=1, cold_size=2, promote_after=2, metrics=metrics, prefix="ind"
        )
        cache.get(key(0))  # miss
        cache.put(key(0), "v")
        cache.get(key(0))  # cold hit
        cache.get(key(0))  # cold hit + promotion
        cache.get(key(0))  # hot hit
        cache.put(key(1), "a")
        cache.put(key(2), "b")
        cache.put(key(3), "c")  # cold tier full: eviction
        assert metrics.counter("ind_misses_total") == 1
        assert metrics.counter("ind_cold_hits_total") == 2
        assert metrics.counter("ind_promotions_total") == 1
        assert metrics.counter("ind_hot_hits_total") == 1
        assert metrics.counter("ind_evictions_total") == 1
