"""OBS rules: span hygiene, metric naming and per-call lookups."""

from tests.staticcheck.conftest import analyze, codes


class TestObs001SpanContextManager:
    def test_bare_span_call_flagged(self):
        source = """\
        from repro.obs.tracer import get_tracer

        def work():
            get_tracer().span("cache.lookup", tier="sql")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS001"]

    def test_assigned_span_flagged(self):
        source = """\
        def work(tracer):
            span = tracer.span("cache.lookup")
            span.set_attribute("tier", "sql")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS001"]

    def test_with_managed_span_clean(self):
        source = """\
        def work(tracer):
            with tracer.span("cache.lookup") as span:
                span.set_attribute("tier", "sql")
        """
        assert analyze(source, {"OBS"}) == []

    def test_unrelated_span_method_clean(self):
        source = """\
        def work(layout):
            layout.span("two-columns")
        """
        assert analyze(source, {"OBS"}) == []


class TestObs002CounterSuffix:
    def test_bad_counter_name_flagged(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                self.hits = registry.counter("cache_hits", "hits")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS002"]

    def test_total_suffix_clean(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                self.hits = registry.counter("cache_hits_total", "hits")
        """
        assert analyze(source, {"OBS"}) == []


class TestObs003MetricPrefix:
    def test_unknown_prefix_flagged(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                self.events = registry.counter("mystery_events_total")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS003"]

    def test_known_prefix_clean(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                self.depth = registry.gauge("serving_queue_depth")
        """
        assert analyze(source, {"OBS"}) == []

    def test_dynamic_name_skipped(self):
        source = """\
        def record(registry, name):
            registry.counter(name).inc()
        """
        assert analyze(source, {"OBS"}) == []


class TestObs004HistogramSuffix:
    def test_missing_unit_flagged(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                self.latency = registry.histogram("cache_latency")
        """
        found = analyze(source, {"OBS"})
        assert codes(found) == ["OBS004"]

    def test_unit_suffix_clean(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                self.latency = registry.histogram("cache_latency_ms")
        """
        assert analyze(source, {"OBS"}) == []

    def test_waiver_applies_to_warning(self):
        source = """\
        class Recorder:
            def __init__(self, registry):
                # staticcheck: allow OBS004 - unit is in the description
                self.latency = registry.histogram("cache_latency")
        """
        assert analyze(source, {"OBS"}) == []


class TestNamingRulesSeeHandles:
    def test_handle_counter_without_total_flagged(self):
        source = """\
        from repro.obs.metrics import Counter, MetricHandle

        HITS = MetricHandle(Counter, "cache_hits", "hits", ("tier",))
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS002"]

    def test_handle_unknown_prefix_flagged(self):
        source = """\
        from repro.obs import metrics

        EVENTS = metrics.MetricHandle(metrics.Gauge, "mystery_depth")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS003"]

    def test_handle_histogram_without_unit_flagged(self):
        source = """\
        from repro.obs.metrics import Histogram, MetricHandle

        LATENCY = MetricHandle(Histogram, "cache_latency", "lookup time")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS004"]

    def test_well_named_handles_clean(self):
        source = """\
        from repro.obs.metrics import (
            Counter, Gauge, Histogram, MetricHandle,
        )

        HITS = MetricHandle(Counter, "cache_hits_total", "hits")
        DEPTH = MetricHandle(Gauge, "serving_queue_depth")
        LATENCY = MetricHandle(Histogram, "cache_latency_ms")
        """
        assert analyze(source, {"OBS"}) == []


class TestObs005RegistryLookupPerCall:
    def test_lookup_in_a_method_flagged(self):
        source = """\
        from repro.obs.metrics import get_registry

        class Cache:
            def lookup(self, key):
                get_registry().counter("cache_requests_total").inc(tier="sql")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS005"]

    def test_lookup_through_a_registry_name_flagged(self):
        source = """\
        def record(registry, elapsed_ms):
            registry.histogram("cache_latency_ms").observe(elapsed_ms)
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS005"]

    def test_lookup_in_a_helper_function_flagged(self):
        source = """\
        from repro.obs.metrics import get_registry

        def _probe_counter():
            return get_registry().counter("resilience_probes_total")
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS005"]

    def test_lookup_in_a_closure_built_by_init_flagged(self):
        source = """\
        class Store:
            def __init__(self, registry):
                def on_evict(key, reason):
                    registry.counter("cache_evictions_total").inc()
                self.on_evict = on_evict
        """
        assert codes(analyze(source, {"OBS"})) == ["OBS005"]

    def test_lookup_in_init_clean(self):
        source = """\
        from repro.obs.metrics import get_registry

        class Engine:
            def __init__(self):
                self._shed = get_registry().counter("serving_shed_total")
        """
        assert analyze(source, {"OBS"}) == []

    def test_module_level_handle_clean(self):
        source = """\
        from repro.obs.metrics import Counter, MetricHandle

        _HITS = MetricHandle(Counter, "cache_hits_total", "", ("tier",))

        def lookup(tier):
            _HITS.labels(tier)()
        """
        assert analyze(source, {"OBS"}) == []

    def test_non_registry_receiver_clean(self):
        source = """\
        def tally(stats):
            stats.counter("cache_hits_total")
        """
        assert analyze(source, {"OBS"}) == []
