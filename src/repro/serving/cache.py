"""Tiered caching for inductive serving queries.

The inductive path is the expensive half of serving — every miss samples
a neighborhood, carves a subgraph, and runs a forward — and real query
streams are heavily skewed: a few hot entities (health probes, popular
nodes) dominate.  A single LRU handles recency but lets one burst of
cold one-off queries evict the whole hot set.  The
:class:`TieredCache` here keeps two tiers instead (the hot/cold split
idiom of dgl's ``frame_cache``):

* a **cold tier** — a plain LRU of size ``cold_size``, the admission
  buffer every new entry lands in;
* a **hot tier** — size ``hot_size``, only reachable by *promotion*: an
  entry whose cold-tier hit count reaches ``promote_after`` moves up.
  Scan bursts churn the cold tier but cannot displace the hot set,
  because a single touch is never enough to promote.

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

from repro.errors import ReproError


class TieredCache:
    """Hot/cold two-tier cache with frequency-based promotion.

    Parameters
    ----------
    hot_size:
        Entries in the promotion-guarded hot tier (0 disables the tier;
        the cache degenerates to the cold LRU).
    cold_size:
        Entries in the cold LRU tier.  ``cold_size=0`` disables the
        cache entirely: :meth:`get` always misses, :meth:`put` is a
        no-op.
    promote_after:
        Cold-tier hits (including the insert-time miss-then-put, counted
        as zero) required before an entry is promoted.  ``1`` promotes
        on the first re-hit.
    metrics / prefix:
        Optional metric registry + counter name prefix.
    """

    def __init__(
        self,
        *,
        hot_size: int = 32,
        cold_size: int = 128,
        promote_after: int = 2,
        metrics=None,
        prefix: str = "cache",
    ):
        if hot_size < 0 or cold_size < 0:
            raise ReproError(
                f"cache sizes must be >= 0, got hot={hot_size} cold={cold_size}"
            )
        if promote_after < 1:
            raise ReproError(f"promote_after must be >= 1, got {promote_after}")
        self.hot_size = int(hot_size)
        self.cold_size = int(cold_size)
        self.promote_after = int(promote_after)
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

    @property
    def enabled(self) -> bool:
        return self.cold_size > 0 or self.hot_size > 0

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
        it has recurred ``promote_after`` times.
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
            if entry[1] >= self.promote_after and self.hot_size > 0:
                del self._cold[key]
                self._hot[key] = entry[0]
                self._inc("promotions_total")
                while len(self._hot) > self.hot_size:
                    demoted_key, demoted_value = self._hot.popitem(last=False)
                    # Hot a moment ago: demote to the cold fresh end with
                    # its promotion progress reset, don't drop outright.
                    self._cold[demoted_key] = [demoted_value, 0]
                self._trim_cold()
            return entry[0]

    def put(self, key: bytes, value: object) -> None:
        """Insert (or refresh) ``key``; new entries land in the cold tier."""
        if not self.enabled:
            return
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
        while len(self._cold) > max(self.cold_size, 0):
            self._cold.popitem(last=False)
            self._inc("evictions_total")

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._hot.clear()
            self._cold.clear()

    def stats(self) -> dict:
        """Current occupancy (counters live on the attached registry)."""
        with self._lock:
            return {
                "hot_entries": len(self._hot),
                "cold_entries": len(self._cold),
                "hot_size": self.hot_size,
                "cold_size": self.cold_size,
                "promote_after": self.promote_after,
            }
