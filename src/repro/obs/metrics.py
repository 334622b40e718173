"""Unified metrics: counters, windowed histograms, Prometheus export.

One :class:`MetricRegistry` serves every subsystem that counts things —
the serving stack (request/error/batch totals, latency percentiles), the
training observability layer (span durations, event totals), and the
``repro report`` CLI (which reconstructs a registry from a run's event
log).  Two signal kinds:

* **counters** — monotonically increasing totals.  Open-ended by name so
  every layer can count what it sees without schema changes.
* **histograms** — bounded sliding windows over recent observations
  summarized as count/mean/min/max and p50/p90/p99 percentiles.  A ring
  buffer keeps memory constant under unbounded traffic; the percentiles
  describe the recent window, which is what an operator watching a live
  run wants anyway.

Everything is guarded by one lock — observations are a few appends, so
contention is negligible next to a forward pass.  ``snapshot()`` returns
plain JSON-ready dicts (what ``GET /metrics`` serves) and
:func:`prometheus_text` renders any snapshot in the Prometheus text
exposition format (what ``GET /metrics?format=prometheus`` and
``repro report`` serve).
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional

import numpy as np

# Observations each histogram retains for its percentiles.
WINDOW = 8192


class WindowHistogram:
    """Fixed-capacity ring buffer with percentile summaries.

    Not internally locked: callers (:class:`MetricRegistry`) must hold
    their own lock across *both* ``add`` and ``summary`` — ``summary``
    reads the ring-buffer list that ``add`` mutates.
    """

    def __init__(self):
        self._values: List[float] = []
        self._next = 0
        self._count = 0  # total observations ever, not just the window

    def add(self, value: float) -> None:
        self._count += 1
        if len(self._values) < WINDOW:
            self._values.append(float(value))
        else:
            self._values[self._next] = float(value)
            self._next = (self._next + 1) % WINDOW

    def summary(self) -> dict:
        if not self._values:
            return {"count": 0}
        window = np.asarray(self._values, dtype=np.float64)
        p50, p90, p99 = np.percentile(window, [50.0, 90.0, 99.0])
        return {
            "count": self._count,
            "window": len(self._values),
            "mean": float(window.mean()),
            "min": float(window.min()),
            "max": float(window.max()),
            "p50": float(p50),
            "p90": float(p90),
            "p99": float(p99),
        }


class MetricRegistry:
    """Thread-safe counters + histograms for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, WindowHistogram] = {}

    # -- counters ------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- histograms ----------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = WindowHistogram()
            histogram.add(value)

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every counter and histogram summary."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def percentile(self, name: str, key: str = "p50") -> Optional[float]:
        """One percentile of one histogram, or ``None`` before any data.

        The summary is taken *under the lock*: a concurrent ``observe``
        mutates the histogram's ring-buffer list, and summarizing it
        unlocked races that mutation (numpy materializes the list while
        it grows).
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return None
            summary = histogram.summary()
        return summary.get(key)

    def prometheus(self, prefix: str = "repro") -> str:
        """This registry's state in Prometheus text exposition format."""
        return prometheus_text(self.snapshot(), prefix=prefix)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_]")

_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def _metric_name(prefix: str, name: str) -> str:
    sanitized = _INVALID_METRIC_CHARS.sub("_", name)
    full = f"{prefix}_{sanitized}" if prefix else sanitized
    if not re.match(r"[a-zA-Z_]", full):
        full = f"_{full}"
    return full


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a :meth:`MetricRegistry.snapshot` (or any dict shaped like
    one) in the Prometheus text exposition format.

    Counters become ``counter`` samples; histograms become ``summary``
    metrics with p50/p90/p99 quantile samples plus ``_count`` (total
    observations ever) and ``_sum`` (over the retained window only —
    ring-buffer histograms do not keep the full-history sum).
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {int(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} summary")
        if summary.get("count"):
            for quantile, key in _QUANTILES:
                lines.append(f'{metric}{{quantile="{quantile}"}} {summary[key]:g}')
            lines.append(f"{metric}_sum {summary['mean'] * summary['window']:g}")
        else:
            lines.append(f"{metric}_sum 0")
        lines.append(f"{metric}_count {int(summary.get('count', 0))}")
    return "\n".join(lines) + "\n"
