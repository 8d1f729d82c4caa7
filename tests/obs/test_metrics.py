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


class TestShardedRecording:
    """Counters and histograms record without a lock, each thread into
    its own shard; reads sum the shards. No sleeps: a tiny switch
    interval makes the threads interleave between bytecodes."""

    THREADS = 8
    RECORDS = 2_000

    @pytest.fixture(autouse=True)
    def _interleave(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def run_threads(self, target, count=None):
        threads = [
            threading.Thread(target=target)
            for _ in range(count or self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()

    def test_no_update_is_lost(self):
        counter = Counter("requests_total")
        histogram = Histogram("latency_ms", buckets=(1.0, 10.0))
        hits = counter.bind(outcome="hit")
        latency = histogram.bind(path="/a")

        def record():
            for _ in range(self.RECORDS):
                hits()
                counter.inc(2, outcome="miss")
                latency(0.5)
                histogram.observe(20.0, path="/a")

        self.run_threads(record)
        expected = self.THREADS * self.RECORDS
        assert counter.value(outcome="hit") == expected
        assert counter.value(outcome="miss") == 2 * expected
        assert counter.total() == 3 * expected
        assert histogram.count(path="/a") == 2 * expected
        assert histogram.sum(path="/a") == expected * 20.5
        assert histogram.bucket_counts(path="/a") == {
            "1.0": expected, "10.0": 0, "+Inf": expected,
        }

    def test_a_dead_threads_counts_survive(self):
        counter = Counter("requests_total")
        histogram = Histogram("latency_ms", buckets=(1.0,))

        def record():
            counter.inc(route="a")
            histogram.observe(0.5)

        # One at a time: each new thread's first record folds the
        # shards of the threads before it, which have all exited.
        for _ in range(20):
            self.run_threads(record, count=1)
        counter.inc(route="a")
        histogram.observe(0.5)
        assert counter.value(route="a") == 21
        assert counter.snapshot()["values"] == {"route=a": 21.0}
        assert histogram.count() == 21 and histogram.sum() == 10.5
        # Exited threads' shards fold into one, so the shard list stays
        # as long as the live recording threads plus that one.
        assert len(counter._shards) <= 3
        assert len(histogram._shards) <= 3

    def test_every_snapshot_agrees_with_itself(self):
        histogram = Histogram("latency_ms", buckets=(1.0, 10.0))
        done = threading.Event()
        snapshots = []

        def record():
            for index in range(self.RECORDS):
                histogram.observe(float(index % 20), path="/a")

        def read():
            while not done.is_set():
                snapshots.append(histogram.snapshot())

        reader = threading.Thread(target=read)
        reader.start()
        try:
            self.run_threads(record, count=4)
        finally:
            done.set()
            reader.join(30.0)
        snapshots.append(histogram.snapshot())
        counts = []
        for snapshot in snapshots:
            for series in snapshot["values"].values():
                assert series["count"] == sum(series["buckets"].values())
                counts.append(series["count"])
        assert counts == sorted(counts)
        assert counts[-1] == 4 * self.RECORDS
