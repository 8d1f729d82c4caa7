"""Tests for the server-side session store."""

import contextlib
import random

import pytest

from repro.core.session import new_session_id
from repro.tenancy.config import TenancyConfig
from repro.tenancy.registry import TenancyError
from repro.tenancy.sessions import SessionStore, UnknownSession


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_store(max_sessions=3, ttl=None, clock=None):
    config = TenancyConfig(
        max_sessions_per_tenant=max_sessions,
        session_ttl_seconds=ttl,
    )
    return SessionStore(
        config, clock=clock or FakeClock(), rng=random.Random(7)
    )


@contextlib.contextmanager
def pinned(store, record):
    """One turn's pin, as the fabric holds it."""
    store.pin(record)
    try:
        yield
    finally:
        store.unpin(record)


class TestSessionIds:
    def test_injected_rng_is_deterministic(self):
        assert new_session_id(random.Random(1)) == new_session_id(
            random.Random(1)
        )

    def test_default_ids_unique_across_calls(self):
        ids = {new_session_id() for _ in range(100)}
        assert len(ids) == 100


class TestSessionStore:
    def test_create_and_resume_by_id(self):
        store = make_store()
        record = store.create("acme", "chat2db")
        resumed = store.create("acme", "chat2db", session_id=record.session_id)
        assert resumed is record
        assert store.get(record.session_id) is record

    def test_resume_across_tenants_rejected(self):
        store = make_store()
        record = store.create("acme", "chat2db")
        with pytest.raises(ValueError):
            store.create("globex", "chat2db", session_id=record.session_id)

    def test_unknown_session_raises(self):
        store = make_store()
        with pytest.raises(UnknownSession):
            store.get("session-nope")

    def test_lru_eviction_beyond_per_tenant_bound(self):
        store = make_store(max_sessions=2)
        first = store.create("acme", "chat2db")
        second = store.create("acme", "chat2db")
        # Touch `first` so `second` becomes the eviction candidate.
        store.get(first.session_id)
        third = store.create("acme", "chat2db")
        assert first.session_id in store
        assert second.session_id not in store
        assert third.session_id in store
        assert store.stats()["acme"]["evictions"] == 1

    def test_bounds_are_per_tenant(self):
        store = make_store(max_sessions=2)
        acme = [store.create("acme", "chat2db") for _ in range(2)]
        globex = [store.create("globex", "chat2db") for _ in range(2)]
        for record in acme + globex:
            assert record.session_id in store

    def test_ttl_expiry_with_injected_clock(self):
        clock = FakeClock()
        store = make_store(ttl=10.0, clock=clock)
        record = store.create("acme", "chat2db")
        clock.advance(11.0)
        with pytest.raises(UnknownSession):
            store.get(record.session_id)
        assert store.stats()["acme"]["expirations"] == 1

    def test_activity_resets_ttl(self):
        clock = FakeClock()
        store = make_store(ttl=10.0, clock=clock)
        record = store.create("acme", "chat2db")
        clock.advance(6.0)
        store.get(record.session_id)
        clock.advance(6.0)
        assert store.get(record.session_id) is record

    def test_pinned_session_never_evicted(self):
        store = make_store(max_sessions=1)
        record = store.create("acme", "chat2db")
        with pinned(store, record):
            newer = store.create("acme", "chat2db")
            # The pinned record survives; the bound is transiently
            # exceeded rather than dropping a session mid-turn.
            assert record.session_id in store
            assert newer.session_id in store
        # After the turn completes the bound is enforced again.
        store.create("acme", "chat2db")
        assert len(store) <= 2

    def test_pinned_session_never_expired(self):
        clock = FakeClock()
        store = make_store(ttl=5.0, clock=clock)
        record = store.create("acme", "chat2db")
        with pinned(store, record):
            clock.advance(60.0)
            assert store.get(record.session_id) is record

    def test_get_pins_under_the_same_lookup(self):
        store = make_store(max_sessions=1)
        record = store.create("acme", "chat2db")
        assert store.get(record.session_id, pin=True) is record
        assert record.inflight == 1
        store.create("acme", "chat2db")
        assert record.session_id in store
        store.unpin(record)
        assert record.inflight == 0

    def test_drop_refuses_inflight(self):
        store = make_store()
        record = store.create("acme", "chat2db")
        with pinned(store, record):
            with pytest.raises(TenancyError):
                store.drop(record.session_id)
        store.drop(record.session_id)
        assert record.session_id not in store

    def test_sessions_for_ordered_by_recency(self):
        store = make_store(max_sessions=5)
        first = store.create("acme", "chat2db")
        second = store.create("acme", "chat2db")
        store.get(first.session_id)
        ordered = store.sessions_for("acme")
        assert ordered == [second, first]
