"""Tests for the metrics registry and its exporters."""

import gc
import json

import pytest

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsError,
    MetricsRegistry,
    get_registry,
    parse_prometheus,
    set_registry,
)


class TestInstruments:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests served")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_is_shared_by_name(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        registry.counter("hits_total").inc()
        assert registry.counter("hits_total").value == 2

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds",
                                       buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)
        cumulative = histogram.cumulative()
        # Cumulative counts: <=0.1, <=1.0, <=10.0, <=+Inf.
        assert [count for _, count in cumulative] == [1, 3, 4, 5]

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")


class TestDisabledRegistry:
    def test_hands_out_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM

    def test_null_instruments_are_inert(self):
        NULL_COUNTER.inc()
        NULL_COUNTER.inc(10)
        NULL_GAUGE.set(3)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0

    def test_snapshot_is_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestCollectors:
    def test_collector_runs_on_snapshot(self):
        registry = MetricsRegistry()
        calls = []

        def publish(reg):
            calls.append(1)
            reg.counter("pulled_total").set(42)

        registry.register_collector(publish)
        snapshot = registry.snapshot()
        assert calls == [1]
        assert snapshot["counters"]["pulled_total"] == 42

    def test_bound_method_collector_is_weak(self):
        registry = MetricsRegistry()

        class Source:
            def publish(self, reg):
                reg.counter("src_total").inc()

        source = Source()
        registry.register_collector(source.publish)
        registry.collect()
        assert registry.counter("src_total").value == 1
        del source
        gc.collect()
        registry.collect()  # dead collector pruned, not called
        assert registry.counter("src_total").value == 1

    def test_disabled_registry_ignores_collectors(self):
        registry = MetricsRegistry(enabled=False)
        registry.register_collector(lambda reg: 1 / 0)
        registry.collect()  # would raise if the collector ran


class TestExporters:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served").inc(7)
        registry.gauge("queue_depth", "Current queue depth").set(2.5)
        histogram = registry.histogram("latency_seconds", "Latency",
                                       buckets=[0.1, 1.0])
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_json_snapshot_shape(self):
        snapshot = self._populated().snapshot()
        assert snapshot["counters"] == {"requests_total": 7}
        assert snapshot["gauges"] == {"queue_depth": 2.5}
        hist = snapshot["histograms"]["latency_seconds"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(5.55)
        assert hist["buckets"] == [[0.1, 1], [1.0, 2], ["+Inf", 3]]

    def test_to_json_round_trips(self):
        registry = self._populated()
        assert json.loads(registry.to_json()) == registry.snapshot()

    def test_prometheus_text_format(self):
        text = self._populated().render_prometheus()
        assert "# HELP requests_total Requests served" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 7" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 2.5" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_count 3" in text
        assert text.endswith("\n")

    def test_prometheus_round_trip_matches_snapshot(self):
        registry = self._populated()
        parsed = parse_prometheus(registry.render_prometheus())
        expected = json.loads(registry.to_json())
        assert parsed["counters"] == expected["counters"]
        assert parsed["gauges"] == expected["gauges"]
        hist = parsed["histograms"]["latency_seconds"]
        want = expected["histograms"]["latency_seconds"]
        assert hist["count"] == want["count"]
        assert hist["sum"] == pytest.approx(want["sum"])
        assert hist["buckets"] == want["buckets"]


class TestProcessRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        original = get_registry()
        replacement = MetricsRegistry()
        try:
            previous = set_registry(replacement)
            assert previous is original
            assert get_registry() is replacement
        finally:
            set_registry(original)
        assert get_registry() is original

    def test_default_registry_is_disabled(self):
        assert get_registry().enabled is False


class TestLabelEscaping:
    ADVERSARIAL = [
        'plain',
        'with "quotes"',
        "back\\slash",
        "trailing backslash\\",
        "new\nline",
        'all three: "\\\n"',
        "unicode: préfixe→∞",
        "{braces}, commas, = signs",
        "",
    ]

    def test_escape_unescape_round_trip(self):
        from repro.obs.metrics import (
            escape_label_value,
            unescape_label_value,
        )

        for value in self.ADVERSARIAL:
            escaped = escape_label_value(value)
            assert "\n" not in escaped
            assert unescape_label_value(escaped) == value

    def test_unknown_escape_passes_through(self):
        from repro.obs.metrics import unescape_label_value

        assert unescape_label_value("\\t") == "\\t"
        assert unescape_label_value("tail\\") == "tail\\"

    def test_labeled_counters_round_trip_through_exposition(self):
        registry = MetricsRegistry(enabled=True)
        for i, value in enumerate(self.ADVERSARIAL):
            registry.counter("adversarial_total", "t",
                             labels={"prefix": value}).inc(i + 1)
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["counters"] == (
            registry.snapshot()["counters"]
        )
        assert len(parsed["counters"]) == len(self.ADVERSARIAL)

    def test_multi_label_histogram_round_trip(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram(
            "loop_duration_seconds", "d",
            labels={"pop": 'east "1"', "proto": "udp\n"},
        )
        for value in (0.5, 3.0, 42.0):
            histogram.observe(value)
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["histograms"] == (
            registry.snapshot()["histograms"]
        )
        (entry,) = parsed["histograms"].values()
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(45.5)

    def test_invalid_label_name_rejected(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(MetricsError):
            registry.counter("x_total", "t", labels={"bad-name": "v"})


class TestMergedRegistry:
    def make(self, loops: int, records: int) -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("loops_total", "Loops").set(loops)
        registry.gauge("records", "Records").set(records)
        histogram = registry.histogram("sizes", "Sizes",
                                       buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_series_gain_the_constant_label(self):
        from repro.obs.metrics import merged_registry

        merged = merged_registry({"a": self.make(3, 100),
                                  "b": self.make(7, 200)})
        snapshot = merged.snapshot()
        assert snapshot["counters"]['loops_total{link="a"}'] == 3
        assert snapshot["counters"]['loops_total{link="b"}'] == 7
        assert snapshot["gauges"]['records{link="a"}'] == 100
        assert snapshot["gauges"]['records{link="b"}'] == 200
        assert snapshot["histograms"]['sizes{link="a"}']["count"] == 2

    def test_custom_label_name(self):
        from repro.obs.metrics import merged_registry

        merged = merged_registry({"east": self.make(1, 1)},
                                 label="direction")
        assert ('loops_total{direction="east"}'
                in merged.snapshot()["counters"])

    def test_existing_labels_are_preserved(self):
        from repro.obs.metrics import merged_registry

        source = MetricsRegistry(enabled=True)
        source.counter("fired_total", "Fired",
                       labels={"rule": "loss"}).set(4)
        merged = merged_registry({"a": source})
        key = 'fired_total{link="a",rule="loss"}'
        assert merged.snapshot()["counters"][key] == 4

    def test_merge_is_a_point_in_time_copy(self):
        from repro.obs.metrics import merged_registry

        source = self.make(1, 1)
        merged = merged_registry({"a": source})
        source.counter("loops_total", "Loops").set(99)
        assert merged.snapshot()["counters"]['loops_total{link="a"}'] == 1

    def test_merge_runs_source_collectors(self):
        from repro.obs.metrics import merged_registry

        source = MetricsRegistry(enabled=True)
        state = {"loops": 12}
        source.register_collector(
            lambda r: r.counter("pulled_total", "Pulled"
                                ).set(state["loops"])
        )
        merged = merged_registry({"a": source})
        assert merged.snapshot()["counters"]['pulled_total{link="a"}'] == 12

    def test_label_collision_rejected(self):
        from repro.obs.metrics import merged_registry

        source = MetricsRegistry(enabled=True)
        source.counter("x_total", "X", labels={"link": "inner"}).inc()
        with pytest.raises(MetricsError, match="already carries"):
            merged_registry({"outer": source})

    def test_invalid_label_name_rejected(self):
        from repro.obs.metrics import merged_registry

        with pytest.raises(MetricsError, match="invalid label name"):
            merged_registry({}, label="9bad")

    def test_rendered_output_round_trips(self):
        from repro.obs.metrics import merged_registry

        merged = merged_registry({"a": self.make(3, 100),
                                  "b": self.make(7, 200)})
        parsed = parse_prometheus(merged.render_prometheus())
        assert parsed["counters"]['loops_total{link="a"}'] == 3
        assert parsed["histograms"]['sizes{link="b"}']["count"] == 2
