"""Counters, gauges, histogram bucketing, the registry and handles."""

import sys
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricHandle,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_labeled_series_are_independent(self):
        counter = Counter("requests_total")
        counter.inc(model="chat")
        counter.inc(2, model="sql-coder")
        assert counter.value(model="chat") == 1
        assert counter.value(model="sql-coder") == 2
        assert counter.total() == 3

    def test_label_order_is_irrelevant(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1

    def test_counters_only_go_up(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_bound_series_is_the_labelled_one(self):
        counter = Counter("c")
        hits = counter.bind(outcome="hit", model="m")
        hits()
        hits(4)
        counter.inc(model="m", outcome="hit")
        assert counter.value(model="m", outcome="hit") == 6
        assert counter.value(model="m", outcome="miss") == 0
        with pytest.raises(ValueError):
            hits(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("inflight")
        gauge.set(3, worker="w1")
        gauge.inc(worker="w1")
        gauge.dec(2, worker="w1")
        assert gauge.value(worker="w1") == 2
        assert gauge.value(worker="w2") == 0


    def test_bound_gauge_sets_the_labelled_series(self):
        gauge = Gauge("inflight")
        depth = gauge.bind(worker="w1")
        depth(3)
        depth(1)
        assert gauge.value(worker="w1") == 1
        assert gauge.value(worker="w2") == 0


class TestHistogramBucketing:
    def test_observations_land_in_upper_bound_buckets(self):
        hist = Histogram("latency", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 99.0, 1000.0):
            hist.observe(value)
        counts = hist.bucket_counts()
        # <=1.0 catches 0.5 and the exact bound 1.0.
        assert counts == {"1.0": 2, "10.0": 1, "100.0": 1, "+Inf": 1}

    def test_sum_count_mean_are_exact(self):
        hist = Histogram("latency", buckets=(10.0,))
        hist.observe(2.0, path="/a")
        hist.observe(4.0, path="/a")
        assert hist.count(path="/a") == 2
        assert hist.sum(path="/a") == 6.0
        assert hist.mean(path="/a") == 3.0
        assert hist.mean(path="/missing") == 0.0

    def test_bound_histogram_observes_the_labelled_series(self):
        hist = Histogram("latency", buckets=(1.0, 10.0))
        latency = hist.bind(path="/a")
        latency(0.5)
        latency(5.0)
        assert hist.count(path="/a") == 2
        assert hist.sum(path="/a") == 5.5
        assert hist.bucket_counts(path="/a") == {
            "1.0": 1, "10.0": 1, "+Inf": 0,
        }

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "description")
        second = registry.counter("hits")
        assert first is second

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(TypeError):
            registry.gauge("hits")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(app="text2sql")
        registry.gauge("depth").set(4, worker="w1")
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert sorted(snap) == ["depth", "hits", "lat"]
        assert snap["hits"]["kind"] == "counter"
        assert snap["hits"]["values"] == {"app=text2sql": 1.0}
        assert snap["depth"]["values"] == {"worker=w1": 4.0}
        lat = snap["lat"]["values"][""]
        assert lat["count"] == 1
        assert lat["buckets"] == {"1.0": 1, "+Inf": 0}

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.reset()
        assert registry.names() == []
        assert registry.get("hits") is None


class TestMetricHandle:
    def test_records_into_the_registry_current_at_each_call(self):
        turns = MetricHandle(Counter, "app_requests_total", "turns", ("app",))
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_registry(first)
        try:
            turns.labels("chat2db")()
            set_registry(second)
            turns.labels("chat2db")()
            turns.labels("chat2db")(2)
            set_registry(first)
            turns.labels("chat2db")()
        finally:
            set_registry(previous)
        assert first.counter("app_requests_total").value(app="chat2db") == 2
        assert second.counter("app_requests_total").value(app="chat2db") == 3

    def test_a_reset_registry_is_resolved_again(self, registry):
        depth = MetricHandle(Gauge, "worker_inflight", "", ("worker",))
        depth.labels("w1")(4)
        registry.reset()
        depth.labels("w1")(2)
        assert registry.gauge("worker_inflight").value(worker="w1") == 2

    def test_snapshot_matches_direct_recording(self, registry):
        latency = MetricHandle(
            Histogram, "cache_hit_latency_ms", "hits", ("tier", "tenant"),
            buckets=(1.0,),
        )
        latency.labels("sql", None)(0.5)
        latency.labels("sql", "acme")(3.0)
        direct = MetricsRegistry()
        hist = direct.histogram("cache_hit_latency_ms", "hits", (1.0,))
        hist.observe(0.5, tier="sql")
        hist.observe(3.0, tenant="acme", tier="sql")
        assert registry.snapshot() == direct.snapshot()

    def test_none_drops_the_label(self, registry):
        lookups = MetricHandle(
            Counter, "cache_requests_total", "", ("tier", "outcome", "tenant")
        )
        lookups.labels("sql", "hit", None)()
        lookups.labels("sql", "hit", "acme")()
        assert registry.snapshot()["cache_requests_total"]["values"] == {
            "outcome=hit,tenant=acme,tier=sql": 1.0,
            "outcome=hit,tier=sql": 1.0,
        }

    def test_instrument_exists_before_its_first_event(self, registry):
        diagnostics = MetricHandle(Counter, "analysis_diagnostics_total")
        assert diagnostics.instrument() is registry.get(
            "analysis_diagnostics_total"
        )
        assert registry.snapshot()["analysis_diagnostics_total"] == {
            "kind": "counter",
            "values": {},
        }

    def test_kind_collision_is_an_error(self, registry):
        get_registry().gauge("worker_inflight")
        with pytest.raises(TypeError):
            MetricHandle(Counter, "worker_inflight").labels()

    def test_no_event_is_lost_across_concurrent_registry_swaps(self):
        """Threads record through one handle while the registry is
        swapped under them: every event lands in exactly one registry."""
        turns = MetricHandle(Counter, "app_requests_total", "", ("app",))
        registries = [MetricsRegistry() for _ in range(4)]
        previous = set_registry(registries[0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def record():
                for _ in range(2_000):
                    turns.labels("chat2db")()

            threads = [threading.Thread(target=record) for _ in range(8)]
            for thread in threads:
                thread.start()
            for registry in registries[1:]:
                set_registry(registry)
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            set_registry(previous)
        total = sum(
            registry.counter("app_requests_total").value(app="chat2db")
            for registry in registries
        )
        assert total == 16_000
