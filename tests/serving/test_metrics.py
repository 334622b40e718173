"""Serving metrics: counters, windowed histograms, snapshots.

The serving stack records into one :class:`~repro.obs.metrics.MetricRegistry`;
these tests pin the registry behaviour serving relies on and the names
the batching core records under.
"""

import threading
import time

import numpy as np

from repro.obs.metrics import WINDOW, MetricRegistry, WindowHistogram
from repro.serving.batching import MicroBatcher


class TestWindowHistogram:
    def test_empty_summary(self):
        assert WindowHistogram().summary() == {"count": 0}

    def test_summary_statistics(self):
        histogram = WindowHistogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.add(value)
        summary = histogram.summary()
        assert summary["count"] == summary["window"] == 4
        assert summary["mean"] == 2.5
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["p50"] == np.percentile([1.0, 2.0, 3.0, 4.0], 50)

    def test_window_evicts_oldest_but_count_is_total(self):
        histogram = WindowHistogram()
        for value in range(WINDOW + 1):
            histogram.add(float(value))
        summary = histogram.summary()
        assert summary["count"] == WINDOW + 1
        assert summary["window"] == WINDOW
        assert summary["min"] == 1.0 and summary["max"] == float(WINDOW)


class TestServingMetrics:
    def test_counters_accumulate(self):
        metrics = MetricRegistry()
        assert metrics.counter("requests_total") == 0
        metrics.inc("requests_total")
        metrics.inc("requests_total", 4)
        assert metrics.counter("requests_total") == 5

    def test_latency_stored_in_milliseconds(self):
        metrics = MetricRegistry()

        def slow(payloads):
            time.sleep(0.05)
            return payloads

        with MicroBatcher(slow, metrics=metrics) as batcher:
            batcher.predict(0, timeout=10)
        assert metrics.percentile("latency_ms", "p50") >= 50.0

    def test_batch_size_observation_counts_batches(self):
        metrics = MetricRegistry()
        entered, release = threading.Event(), threading.Event()

        def held(payloads):
            entered.set()
            release.wait(timeout=10)
            return payloads

        with MicroBatcher(held, max_batch_size=8, max_wait_s=0.0, metrics=metrics) as batcher:
            first = batcher.submit(0)  # the dispatcher holds this one
            assert entered.wait(timeout=10)
            rest = [batcher.submit(i) for i in range(1, 5)]
            release.set()
            for future in [first, *rest]:
                future.result(timeout=10)
        # The held request leaves alone; the four queued behind it leave
        # together, one batch of four.
        assert metrics.counter("batches_total") == 2
        assert metrics.percentile("batch_size", "max") == 4.0

    def test_percentile_of_unknown_histogram_is_none(self):
        assert MetricRegistry().percentile("nope") is None

    def test_snapshot_is_json_ready_and_sorted(self):
        import json

        metrics = MetricRegistry()
        metrics.inc("b")
        metrics.inc("a")
        metrics.observe("latency_ms", 1.0)
        snapshot = metrics.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["histograms"]["latency_ms"]["count"] == 1
        json.dumps(snapshot)  # must not raise

    def test_percentile_races_observe_without_errors(self):
        # Regression: percentile() used to grab the histogram under the
        # lock but call summary() after releasing it, racing the ring
        # buffer against concurrent add() calls.  Hammer readers against
        # writers: every read must return a coherent value, never raise.
        metrics = MetricRegistry()
        stop = threading.Event()
        failures = []

        def writer():
            value = 0.0
            while not stop.is_set():
                metrics.observe("latency_ms", value % 100.0)
                value += 1.0

        def reader():
            while not stop.is_set():
                try:
                    p50 = metrics.percentile("latency_ms", "p50")
                except Exception as exc:  # noqa: BLE001 - the regression itself
                    failures.append(exc)
                    return
                if p50 is not None and not (0.0 <= p50 < 100.0):
                    failures.append(p50)
                    return

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures

    def test_thread_safety_under_contention(self):
        metrics = MetricRegistry()

        def hammer():
            for _ in range(500):
                metrics.inc("hits")
                metrics.observe("value", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("hits") == 4000
        assert metrics.snapshot()["histograms"]["value"]["count"] == 4000
