"""TieredCache: promotion, demotion, eviction, counters.

The cache's contract is behavioral, not structural: scan bursts must not
displace the hot set, demoted entries must survive in the cold tier, and
the cold tier evicts least-recently used entries.  The tests fill the
fixed 32 hot and 128 cold slots and observe the tiers through the
attached counters.  Keys are opaque bytes throughout, matching the
engine's query digests.
"""

from repro.obs.metrics import MetricRegistry
from repro.serving.cache import COLD_SIZE, HOT_SIZE, PROMOTE_AFTER, TieredCache


def key(i: int) -> bytes:
    return f"k{i}".encode()


def counted_cache():
    metrics = MetricRegistry()
    return TieredCache(metrics=metrics), metrics


def promote(cache: TieredCache, i: int, value: object) -> None:
    """Insert ``key(i)`` and hit it until it reaches the hot tier."""
    cache.put(key(i), value)
    for _ in range(PROMOTE_AFTER):
        cache.get(key(i))


class TestBasics:
    def test_miss_then_put_then_hit(self):
        cache = TieredCache()
        assert cache.get(key(0)) is None
        cache.put(key(0), "v0")
        assert cache.get(key(0)) == "v0"
        assert key(0) in cache
        assert len(cache) == 1

    def test_put_refreshes_existing_value_in_either_tier(self):
        cache, metrics = counted_cache()
        cache.put(key(0), "old")
        cache.put(key(0), "new")  # cold-tier refresh
        for _ in range(PROMOTE_AFTER):
            assert cache.get(key(0)) == "new"  # the last hit promotes
        assert metrics.counter("cache_promotions_total") == 1
        cache.put(key(0), "newer")  # hot-tier refresh
        assert cache.get(key(0)) == "newer"
        assert metrics.counter("cache_hot_hits_total") == 1
        assert len(cache) == 1

    def test_clear_empties_both_tiers(self):
        cache = TieredCache()
        promote(cache, 0, "a")
        cache.put(key(1), "b")
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key(0)) is None and cache.get(key(1)) is None


class TestPromotion:
    def test_entry_promotes_only_after_enough_cold_hits(self):
        cache, metrics = counted_cache()
        cache.put(key(0), "v")
        for hit in range(1, PROMOTE_AFTER):
            cache.get(key(0))  # not yet
            assert metrics.counter("cache_promotions_total") == 0, hit
        cache.get(key(0))  # promoted
        assert metrics.counter("cache_promotions_total") == 1
        assert metrics.counter("cache_cold_hits_total") == PROMOTE_AFTER
        cache.get(key(0))
        assert metrics.counter("cache_hot_hits_total") == 1
        assert len(cache) == 1

    def test_scan_burst_cannot_displace_the_hot_set(self):
        # The property the tier split exists for: cold one-off traffic
        # churns the cold LRU but a single touch never reaches the hot
        # tier, so the hot entry survives an arbitrarily long scan.
        cache, metrics = counted_cache()
        promote(cache, 0, "hot")
        for i in range(1, 3 * COLD_SIZE):  # scan burst of one-touch keys
            cache.put(key(i), f"cold{i}")
            cache.get(key(i))
        assert metrics.counter("cache_evictions_total") > 0
        assert cache.get(key(0)) == "hot"
        assert metrics.counter("cache_hot_hits_total") == 1

    def test_hot_eviction_demotes_to_cold_instead_of_dropping(self):
        cache, metrics = counted_cache()
        for i in range(HOT_SIZE + 1):  # the last promotion demotes key 0
            promote(cache, i, f"v{i}")
        assert metrics.counter("cache_promotions_total") == HOT_SIZE + 1
        assert metrics.counter("cache_evictions_total") == 0
        assert len(cache) == HOT_SIZE + 1
        cold_hits = metrics.counter("cache_cold_hits_total")
        assert cache.get(key(0)) == "v0"  # still cached, cold tier
        assert metrics.counter("cache_cold_hits_total") == cold_hits + 1


class TestEviction:
    def test_cold_lru_evicts_oldest_beyond_capacity(self):
        cache = TieredCache()
        for i in range(COLD_SIZE + 1):  # the last insert evicts key 0
            cache.put(key(i), f"v{i}")
        assert len(cache) == COLD_SIZE
        assert cache.get(key(0)) is None
        assert cache.get(key(1)) == "v1" and cache.get(key(COLD_SIZE)) == f"v{COLD_SIZE}"

    def test_cold_hit_refreshes_lru_position(self):
        cache = TieredCache()
        for i in range(COLD_SIZE):
            cache.put(key(i), f"v{i}")
        cache.get(key(0))  # key 0 is now the freshest (one hit: not promoted)
        cache.put(key(COLD_SIZE), "new")  # evicts key 1, not key 0
        assert cache.get(key(0)) == "v0"
        assert cache.get(key(1)) is None


class TestMetrics:
    def test_counters_track_tier_behavior(self):
        metrics = MetricRegistry()
        cache = TieredCache(metrics=metrics, prefix="ind")
        cache.get(key(0))  # miss
        cache.put(key(0), "v")
        cache.get(key(0))  # cold hit
        cache.get(key(0))  # cold hit + promotion
        cache.get(key(0))  # hot hit
        for i in range(1, COLD_SIZE + 2):
            cache.put(key(i), "a")  # the last insert finds the cold tier full
        assert metrics.counter("ind_misses_total") == 1
        assert metrics.counter("ind_cold_hits_total") == 2
        assert metrics.counter("ind_promotions_total") == 1
        assert metrics.counter("ind_hot_hits_total") == 1
        assert metrics.counter("ind_evictions_total") == 1
