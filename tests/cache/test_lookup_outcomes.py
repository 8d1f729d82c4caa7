"""A cache lookup opens no span: its outcome goes on the caller's span.

Each tier's outcomes under one span are kept in order as
``cache.<tier>`` (``"miss,hit"``), a miss's compute spans nest directly
under the caller, and the hit and miss latency histograms count the
lookups by outcome. No sleeps: the coalesced-waiter test counts claims on a semaphore.
"""

import asyncio
import threading

import pytest

from repro.cache.manager import CacheManager
from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer

WAIT_S = 10.0


@pytest.fixture
def tracer():
    fresh = Tracer()
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def lookups(registry):
    """Lookups by rendered label set: the hit and miss histograms'
    observation counts, under an ``outcome`` label."""
    counts = {}
    for outcome, name in (
        ("hit", "cache_hit_latency_ms"), ("miss", "cache_miss_compute_ms")
    ):
        values = registry.histogram(name).snapshot()["values"]
        for labels, series in values.items():
            counts[f"outcome={outcome},{labels}"] = float(series["count"])
    return counts


def test_sync_lookups_mark_the_caller(tracer, registry):
    manager = CacheManager()

    def compute():
        with tracer.span("compute"):
            return "rows"

    with tracer.span("caller") as caller:
        assert manager.cached("sql", "k", compute) == "rows"
        assert manager.cached("sql", "k", compute) == "rows"
    spans = tracer.trace(caller.trace_id)
    assert sorted(span.name for span in spans) == ["caller", "compute"]
    (computed,) = [span for span in spans if span.name == "compute"]
    assert computed.parent_id == caller.span_id
    assert caller.attributes == {"cache.sql": "miss,hit"}
    assert lookups(registry) == {
        "outcome=hit,tier=sql": 1.0,
        "outcome=miss,tier=sql": 1.0,
    }


def test_async_lookups_mark_the_caller(tracer, registry):
    manager = CacheManager()

    async def compute():
        with tracer.span("compute"):
            return "answer"

    async def turn():
        with tracer.span("caller") as caller:
            for _ in range(3):
                assert await manager.acached("inference", "k", compute) == (
                    "answer"
                )
        return caller

    caller = asyncio.run(turn())
    (computed,) = [
        span
        for span in tracer.trace(caller.trace_id)
        if span.name == "compute"
    ]
    assert computed.parent_id == caller.span_id
    assert caller.attributes == {"cache.inference": "miss,hit,hit"}
    assert lookups(registry) == {
        "outcome=hit,tier=inference": 2.0,
        "outcome=miss,tier=inference": 1.0,
    }


def test_each_tier_keeps_its_own_outcomes(tracer, registry):
    manager = CacheManager()
    with tracer.span("caller") as caller:
        manager.cached("sql", "a", lambda: 1)
        manager.cached("rag", "a", lambda: 2)
        manager.cached("sql", "b", lambda: 3)
        manager.cached("sql", "a", lambda: 4)
        with tracer.span("inner") as inner:
            manager.cached("rag", "a", lambda: 5)
    assert caller.attributes == {
        "cache.sql": "miss,miss,hit",
        "cache.rag": "miss",
    }
    assert inner.attributes == {"cache.rag": "hit"}


def test_a_lookup_outside_any_span_only_counts(tracer, registry):
    manager = CacheManager()
    assert manager.cached("sql", "k", lambda: "rows") == "rows"
    assert tracer.trace_ids() == []
    assert lookups(registry) == {"outcome=miss,tier=sql": 1.0}


def test_a_coalesced_waiter_marks_its_own_span_a_hit(tracer, registry):
    manager = CacheManager()
    store = manager.store("sql")
    claimed = threading.Semaphore(0)
    claim = store._claim

    def counted_claim(*args, **kwargs):
        outcome = claim(*args, **kwargs)
        claimed.release()
        return outcome

    store._claim = counted_claim
    release = threading.Event()
    callers = {}

    def compute():
        assert release.wait(WAIT_S)
        return "rows"

    def turn(name):
        with tracer.span(name) as span:
            callers[name] = span
            assert manager.cached("sql", "k", compute) == "rows"

    leader = threading.Thread(target=turn, args=("leader",))
    leader.start()
    assert claimed.acquire(timeout=WAIT_S)
    waiter = threading.Thread(target=turn, args=("waiter",))
    waiter.start()
    assert claimed.acquire(timeout=WAIT_S)
    release.set()
    for thread in (leader, waiter):
        thread.join(WAIT_S)
        assert not thread.is_alive()
    assert callers["leader"].attributes == {"cache.sql": "miss"}
    assert callers["waiter"].attributes == {"cache.sql": "hit"}
    assert store.stats().coalesced == 1
    assert lookups(registry) == {
        "outcome=hit,tier=sql": 1.0,
        "outcome=miss,tier=sql": 1.0,
    }
