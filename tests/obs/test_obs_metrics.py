"""Unit tests for the metrics registry: instruments, snapshots, renderers."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("hits", help="plan-cache hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_thread_safe_increments(self):
        counter = MetricsRegistry().counter("races")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 12

    @pytest.mark.parametrize("kind", ["gauge", "counter"])
    def test_callback_makes_instrument_read_through(self, kind):
        # The callback is evaluated at *collection* time: every read — and
        # therefore every registry.snapshot(), however it is triggered —
        # observes the live value, not whatever was last stored.
        registry = MetricsRegistry()
        gauge = getattr(registry, kind)("depth")
        live = {"value": 0}
        gauge.inc(99)  # stale stored value; the callback must win
        gauge.set_callback(lambda: live["value"])
        assert gauge.value == 0
        live["value"] = 7
        assert gauge.value == 7
        assert registry.snapshot().value("depth") == 7
        live["value"] = 3
        assert registry.snapshot().value("depth") == 3

    def test_callback_failure_falls_back_to_stored_value(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)

        def dying():
            raise RuntimeError("pool is gone")

        gauge.set_callback(dying)
        assert gauge.value == 5  # a dying source must not kill the scrape

    def test_disabled_registry_noop_accepts_callback(self):
        registry = MetricsRegistry(enabled=False)
        registry.gauge("depth").set_callback(lambda: 1)  # must not raise
        assert "depth" not in registry.snapshot()


class TestHistogram:
    def test_buckets_are_cumulative_le(self):
        histogram = MetricsRegistry().histogram(
            "lat", buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        series = histogram.series()
        assert series["buckets"] == {"0.01": 1, "0.1": 3, "1.0": 4, "+Inf": 5}
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(5.605)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus ``le`` is inclusive: observe(bound) counts in that bucket.
        histogram = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.1)
        assert histogram.series()["buckets"]["0.1"] == 1

    def test_default_buckets_span_sub_ms_to_multi_second(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0005
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            MetricsRegistry().histogram("lat", buckets=())

    def test_memory_is_bounded(self):
        histogram = MetricsRegistry().histogram("lat", buckets=(1.0,))
        for _ in range(10_000):
            histogram.observe(0.5)
        # Fixed storage: one count per bound plus +Inf, sum and count.
        assert histogram.count == 10_000
        assert len(histogram.series()["buckets"]) == 2


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")
        assert registry.counter("hits", labels={"k": "a"}) is not registry.counter(
            "hits", labels={"k": "b"}
        )
        assert len(registry) == 3

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        first = registry.counter("c", labels={"a": "1", "b": "2"})
        second = registry.counter("c", labels={"b": "2", "a": "1"})
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("dual")

    def test_disabled_registry_hands_out_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("hits")
        counter.inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.5)
        assert len(registry) == 0
        snapshot = registry.snapshot()
        assert snapshot.enabled is False
        assert snapshot.data == {}

    def test_disabled_noop_is_shared(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.histogram("b")


class TestSnapshot:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total", help="cache hits").inc(3)
        registry.counter(
            "repro_lookups_total", labels={"outcome": "hit"}
        ).inc(3)
        registry.counter(
            "repro_lookups_total", labels={"outcome": "miss"}
        ).inc(1)
        registry.gauge("repro_entries", help="live entries").set(7)
        registry.histogram(
            "repro_seconds", help="latency", buckets=(0.1, 1.0)
        ).observe(0.05)
        return registry

    def test_snapshot_is_immutable_copy(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        registry.counter("repro_hits_total").inc(100)
        assert snapshot.value("repro_hits_total") == 3

    def test_value_lookup_by_labels(self):
        snapshot = self._populated().snapshot()
        assert snapshot.value("repro_lookups_total", {"outcome": "hit"}) == 3
        assert snapshot.value("repro_lookups_total", {"outcome": "miss"}) == 1
        assert "repro_entries" in snapshot
        assert "missing" not in snapshot
        with pytest.raises(KeyError, match="no metric named"):
            snapshot.value("missing")
        with pytest.raises(KeyError, match="no series"):
            snapshot.value("repro_lookups_total", {"outcome": "other"})

    def test_histogram_value_returns_series_dict(self):
        snapshot = self._populated().snapshot()
        series = snapshot.value("repro_seconds")
        assert series["count"] == 1
        assert series["buckets"]["0.1"] == 1

    def test_to_json_round_trips(self):
        snapshot = self._populated().snapshot()
        document = json.loads(snapshot.to_json())
        assert document["enabled"] is True
        assert document["metrics"]["repro_hits_total"]["type"] == "counter"
        assert document["metrics"]["repro_seconds"]["type"] == "histogram"

    def test_to_prometheus_format(self):
        text = self._populated().snapshot().to_prometheus()
        lines = text.strip().splitlines()
        assert "# HELP repro_hits_total cache hits" in lines
        assert "# TYPE repro_hits_total counter" in lines
        assert "repro_hits_total 3" in lines
        assert 'repro_lookups_total{outcome="hit"} 3' in lines
        assert 'repro_lookups_total{outcome="miss"} 1' in lines
        assert "# TYPE repro_entries gauge" in lines
        assert "repro_entries 7" in lines
        assert "# TYPE repro_seconds histogram" in lines
        assert 'repro_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_seconds_sum 0.05" in lines
        assert "repro_seconds_count 1" in lines
        # Integral floats render without the trailing .0 (diff-friendly).
        assert "repro_hits_total 3.0" not in lines

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"q": 'a"b\nc'}).inc()
        text = registry.snapshot().to_prometheus()
        assert r'c{q="a\"b\nc"} 1' in text

    def test_series_sorted_for_stable_output(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"k": "z"}).inc()
        registry.counter("c", labels={"k": "a"}).inc()
        series = registry.snapshot().data["c"]["series"]
        assert [entry["labels"]["k"] for entry in series] == ["a", "z"]
