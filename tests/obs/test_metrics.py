"""MetricRegistry and the Prometheus text exporter."""

from repro.obs.metrics import WINDOW, MetricRegistry, prometheus_text


class TestMetricRegistry:
    def test_counters_and_histograms(self):
        registry = MetricRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.observe("lat", 5.0)
        assert registry.counter("a") == 3
        assert registry.percentile("lat", "p50") == 5.0
        assert registry.percentile("missing") is None

    def test_window_bound_keeps_the_latest_values(self):
        registry = MetricRegistry()
        for value in range(WINDOW + 1):
            registry.observe("x", float(value))
        snapshot = registry.snapshot()["histograms"]["x"]
        assert snapshot["count"] == WINDOW + 1  # total ever
        assert snapshot["window"] == WINDOW  # retained
        assert snapshot["min"] == 1.0

    def test_prometheus_method_matches_module_function(self):
        registry = MetricRegistry()
        registry.inc("requests_total")
        registry.observe("latency_ms", 2.0)
        assert registry.prometheus() == prometheus_text(registry.snapshot())


class TestPrometheusText:
    def test_counter_rendering(self):
        text = prometheus_text({"counters": {"requests_total": 7}, "histograms": {}})
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 7" in text
        assert text.endswith("\n")

    def test_summary_rendering_with_quantiles(self):
        registry = MetricRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("latency_ms", value)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_latency_ms summary" in text
        assert 'repro_latency_ms{quantile="0.5"} 2.5' in text
        assert 'repro_latency_ms{quantile="0.99"}' in text
        assert "repro_latency_ms_sum 10" in text
        assert "repro_latency_ms_count 4" in text

    def test_empty_histogram_renders_zero_samples(self):
        text = prometheus_text({"counters": {}, "histograms": {"h": {"count": 0}}})
        assert "repro_h_sum 0" in text
        assert "repro_h_count 0" in text
        assert "quantile" not in text

    def test_metric_names_are_sanitized(self):
        text = prometheus_text({"counters": {"span_rdd:student_s": 1}, "histograms": {}})
        assert "repro_span_rdd_student_s 1" in text
        assert ":" not in text.replace("# TYPE", "")

    def test_prefix_is_optional_and_leading_digit_guarded(self):
        text = prometheus_text({"counters": {"9lives": 1}, "histograms": {}}, prefix="")
        assert "_9lives 1" in text
