"""The metrics registry: counters, gauges, histograms, rendering.

What matters here is the contract the rest of the stack builds on:
get-or-create semantics (modules reference shared metrics by name),
thread-safe increments, exact recent-window quantiles, a JSON snapshot
for ``/stats``, and a Prometheus text rendering for ``/metrics``.
"""

import math
import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    default_registry,
)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "jobs")
        second = registry.counter("jobs_total")
        assert first is second

    def test_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing", "a thing")
        with pytest.raises(ValueError, match="thing"):
            registry.gauge("thing")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name with spaces")

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()

    def test_get_returns_none_for_unknown(self):
        assert MetricsRegistry().get("nope") is None


class TestCounterAndGauge:
    def test_counter_inc(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative_inc(self):
        with pytest.raises(ValueError):
            Counter("c_total", "help").inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(7)
        assert gauge.value == 7.0

    def test_labelled_counter_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", labelnames=("kind",))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc()
        counter.labels(kind="b").inc()
        snapshot = registry.snapshot()["hits_total"]
        by_kind = {
            series["labels"]["kind"]: series["value"]
            for series in snapshot["series"]
        }
        assert by_kind == {"a": 2.0, "b": 1.0}

    def test_concurrent_increments_do_not_drop(self):
        counter = Counter("c_total", "help")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000.0


class TestHistogram:
    def test_observe_fills_buckets_and_sum(self):
        histogram = Histogram("h_seconds", "help", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(7.0)

    def test_quantiles_are_exact_over_recent_window(self):
        histogram = Histogram("h_seconds", "help")
        for value in range(1, 101):
            histogram.observe(value / 1000.0)
        assert histogram.quantile(0.50) == pytest.approx(0.051)
        assert histogram.quantile(0.99) == pytest.approx(0.100)
        assert histogram.quantile(0.0) == pytest.approx(0.001)

    def test_default_buckets_cover_sub_ms_to_minutes(self):
        assert LATENCY_BUCKETS[0] < 0.001
        assert LATENCY_BUCKETS[-1] > 60.0

    def test_render_is_cumulative_with_inf_equal_to_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "help", buckets=(1.0,))
        histogram.observe(0.5)
        histogram.observe(2.0)
        text = registry.render_prometheus()
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_count 2" in text


class TestRenderPrometheus:
    def test_rendering_passes_the_exposition_gate(self):
        import sys
        from pathlib import Path

        tools = Path(__file__).resolve().parents[2] / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_metrics import check_exposition
        finally:
            sys.path.remove(str(tools))
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        registry.gauge("b", "b").set(1)
        registry.histogram(
            "c_seconds", "c", labelnames=("stage",)
        ).labels(stage="x").observe(0.01)
        errors = check_exposition(
            registry.render_prometheus(), require=("a_total",)
        )
        assert errors == []

    def test_help_lines_escape_newlines(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "line one\nline two").inc()
        for line in registry.render_prometheus().splitlines():
            if line.startswith("# HELP"):
                assert "\n" not in line


def test_snapshot_includes_quantiles():
    registry = MetricsRegistry()
    histogram = registry.histogram("h_seconds", "help")
    histogram.observe(0.010)
    snapshot = registry.snapshot()["h_seconds"]
    assert snapshot["count"] == 1
    assert snapshot["p50"] == pytest.approx(0.010)
    assert snapshot["p99"] == pytest.approx(0.010)
    assert math.isfinite(snapshot["sum"])
