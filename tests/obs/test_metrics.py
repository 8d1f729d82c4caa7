"""Counters, gauges, histogram bucketing and the registry."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


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
