"""The tenancy gauges agree with the counts they mirror at quiescence.

``tenant_inflight`` and ``tenant_sessions`` are published from every
path that changes the count, under the lock that guards it; a turn's
ledger reads them once everything is idle.
"""

import random

from repro.tenancy.config import QuotaConfig, TenancyConfig
from repro.tenancy.quotas import QuotaManager
from repro.tenancy.sessions import SessionStore, UnknownSession
from tests.interleave import leave_together


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_inflight_gauge_after_two_turns_finish_together(
    _isolated_registry,
):
    quotas = QuotaManager(
        QuotaConfig(refill_per_second=100.0, burst=100.0, max_inflight=4),
        clock=FakeClock(),
    )
    quotas.admit("acme")
    quotas.admit("acme")
    gauge = _isolated_registry.get("tenant_inflight")
    assert gauge.value(tenant="acme") == 2

    leave_together(
        lambda: quotas.release("acme"),
        lambda: quotas.release("acme"),
        instrument=gauge,
        owner=quotas,
    )

    assert quotas.snapshot()["acme"]["inflight"] == 0
    assert gauge.value(tenant="acme") == 0


def test_sessions_gauge_follows_drop_and_ttl_expiry(_isolated_registry):
    clock = FakeClock()
    store = SessionStore(
        TenancyConfig(session_ttl_seconds=60.0),
        clock=clock,
        rng=random.Random(3),
    )
    dropped = store.create("acme", "chat2db")
    expiring = store.create("acme", "chat2db")
    gauge = _isolated_registry.get("tenant_sessions")
    assert gauge.value(tenant="acme") == 2

    store.drop(dropped.session_id)
    assert gauge.value(tenant="acme") == 1
    clock.now += 61.0
    try:
        store.get(expiring.session_id)
    except UnknownSession:
        pass
    assert len(store) == 0
    assert gauge.value(tenant="acme") == 0


def test_sessions_gauge_follows_lru_eviction(_isolated_registry):
    store = SessionStore(
        TenancyConfig(max_sessions_per_tenant=2),
        clock=FakeClock(),
        rng=random.Random(5),
    )
    for _ in range(3):
        store.create("acme", "chat2db")
    assert len(store) == 2
    assert _isolated_registry.get("tenant_sessions").value(tenant="acme") == 2
