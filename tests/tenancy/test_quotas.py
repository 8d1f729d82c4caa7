"""Tests for admission-time tenant quotas."""

import contextlib

import pytest

from repro.serving.scheduler import SchedulerOverloaded
from repro.tenancy.config import QuotaConfig
from repro.tenancy.quotas import QuotaManager, TenantThrottled


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@contextlib.contextmanager
def turn(manager, tenant_id):
    """One turn as the fabric runs it: admit, then release however the
    block ends."""
    manager.admit(tenant_id)
    try:
        yield
    finally:
        manager.release(tenant_id)


def make_manager(clock=None, **quota_kwargs):
    quota_kwargs.setdefault("refill_per_second", 1.0)
    quota_kwargs.setdefault("burst", 2.0)
    return QuotaManager(
        QuotaConfig(**quota_kwargs), clock=clock or FakeClock()
    )


class TestTokenBucket:
    def test_burst_then_throttled(self):
        manager = make_manager()
        for _ in range(2):
            with turn(manager, "acme"):
                pass
        with pytest.raises(TenantThrottled) as exc_info:
            with turn(manager, "acme"):
                pass
        assert exc_info.value.retry_after > 0
        assert exc_info.value.tenant_id == "acme"

    def test_refill_restores_admission(self):
        clock = FakeClock()
        manager = make_manager(clock)
        for _ in range(2):
            with turn(manager, "acme"):
                pass
        clock.advance(1.0)
        with turn(manager, "acme"):
            pass

    def test_retry_after_matches_refill_deficit(self):
        clock = FakeClock()
        manager = make_manager(clock)
        for _ in range(2):
            with turn(manager, "acme"):
                pass
        with pytest.raises(TenantThrottled) as exc_info:
            with turn(manager, "acme"):
                pass
        # Empty bucket, 1 token/s refill: one full token away.
        assert exc_info.value.retry_after == pytest.approx(1.0, abs=0.01)

    def test_buckets_are_per_tenant(self):
        manager = make_manager()
        for _ in range(2):
            with turn(manager, "noisy"):
                pass
        with pytest.raises(TenantThrottled):
            with turn(manager, "noisy"):
                pass
        with turn(manager, "quiet"):
            pass

    def test_rejection_charges_nothing(self):
        clock = FakeClock()
        manager = make_manager(clock)
        for _ in range(2):
            with turn(manager, "acme"):
                pass
        for _ in range(5):
            with pytest.raises(TenantThrottled):
                with turn(manager, "acme"):
                    pass
        clock.advance(1.0)
        # Refill admits exactly one turn: the rejections cost nothing.
        with turn(manager, "acme"):
            pass


class TestInflightCap:
    def test_max_inflight_enforced(self):
        manager = make_manager(burst=100.0, max_inflight=1)
        with turn(manager, "acme"):
            with pytest.raises(TenantThrottled):
                with turn(manager, "acme"):
                    pass
        # Slot freed after the first turn completed.
        with turn(manager, "acme"):
            pass

    def test_failed_turn_releases_slot(self):
        manager = make_manager(burst=100.0, max_inflight=1)
        with pytest.raises(RuntimeError):
            with turn(manager, "acme"):
                raise RuntimeError("turn blew up")
        with turn(manager, "acme"):
            pass


class TestSchedulerIntegration:
    def test_throttled_is_scheduler_overloaded(self):
        # The 429 + retry_after mapping and the client's transient
        # classification both key off SchedulerOverloaded.
        assert issubclass(TenantThrottled, SchedulerOverloaded)
        exc = TenantThrottled("acme", "over", retry_after=0.5)
        assert exc.code == "tenant_throttled"

    def test_check_passes_while_turn_admitted(self):
        manager = make_manager()
        with turn(manager, "acme"):
            # Exhaust the bucket from other turns' charges.
            manager._buckets["acme"].tokens = 0.0
            # The admitted turn covers its own downstream calls.
            manager.check("acme")

    def test_check_rejects_uncovered_exhausted_tenant(self):
        manager = make_manager()
        for _ in range(2):
            with turn(manager, "acme"):
                pass
        with pytest.raises(TenantThrottled):
            manager.check("acme")

    def test_check_passes_unknown_tenant(self):
        make_manager().check("never-seen")


class TestSnapshot:
    def test_snapshot_rows(self):
        manager = make_manager()
        with turn(manager, "acme"):
            rows = manager.snapshot()
            assert rows["acme"]["inflight"] == 1
            assert rows["acme"]["admitted"] == 1
        with pytest.raises(TenantThrottled):
            with turn(manager, "acme"):
                with turn(manager, "acme"):
                    pass
        assert manager.snapshot()["acme"]["throttled"] >= 1

    def test_quota_override_via_lookup(self):
        tight = QuotaConfig(refill_per_second=1.0, burst=1.0)
        manager = QuotaManager(
            QuotaConfig(burst=100.0),
            quota_lookup=lambda t: tight if t == "limited" else None,
            clock=FakeClock(),
        )
        with turn(manager, "limited"):
            pass
        with pytest.raises(TenantThrottled):
            with turn(manager, "limited"):
                pass
        for _ in range(10):
            with turn(manager, "roomy"):
                pass
