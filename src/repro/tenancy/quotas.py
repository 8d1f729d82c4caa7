"""Admission-time quotas: per-tenant token buckets + in-flight caps.

Quotas run *in front of* the serving scheduler: a turn that would
exceed its tenant's budget is rejected at admission with
:class:`TenantThrottled` — a subclass of the scheduler's
:class:`~repro.serving.scheduler.SchedulerOverloaded`, so every
existing backpressure surface (the API server's 429 + ``retry_after``
mapping, the client's retry-with-hint policy) applies unchanged. One
noisy tenant exhausts its own bucket and gets structured 429s; it can
never occupy the batch window ahead of compliant tenants' work.

The clock is injectable, so bucket refill (and therefore every
throttling decision) is deterministic in tests without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.obs.metrics import Counter, Gauge, MetricHandle
from repro.serving.scheduler import SchedulerOverloaded
from repro.tenancy.config import QuotaConfig

_INFLIGHT = MetricHandle(
    Gauge, "tenant_inflight", "turns currently running per tenant", ("tenant",)
)
_THROTTLED = MetricHandle(
    Counter, "tenant_throttled_total",
    "turns rejected at admission by per-tenant quota", ("tenant", "reason"),
)
_REQUESTS = MetricHandle(
    Counter, "tenant_requests_total", "tenant turns by outcome",
    ("tenant", "outcome"),
)


class TenantThrottled(SchedulerOverloaded):
    """The tenant is over quota; retry after ``retry_after`` seconds.

    Subclassing :class:`SchedulerOverloaded` reuses the serving
    layer's structured-backpressure plumbing end to end (429 status,
    ``retry_after`` hint, client retry classification).
    """

    code = "tenant_throttled"

    def __init__(
        self, tenant_id: str, message: str, retry_after: float
    ) -> None:
        super().__init__(message, retry_after)
        self.tenant_id = tenant_id


class _Bucket:
    """Continuous-refill token bucket state (guarded by the manager)."""

    __slots__ = ("tokens", "updated_at")

    def __init__(self, burst: float, now: float) -> None:
        self.tokens = burst
        self.updated_at = now

    def refill(self, quota: QuotaConfig, now: float) -> None:
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(
            quota.burst, self.tokens + elapsed * quota.refill_per_second
        )
        self.updated_at = now


class QuotaManager:
    """Per-tenant token buckets and in-flight caps.

    ``quota_lookup`` resolves a tenant's override (the registry's
    :meth:`~repro.tenancy.registry.TenantRegistry.quota_for`); tenants
    without one share ``default`` limits, each with their own bucket.
    """

    def __init__(
        self,
        default: Optional[QuotaConfig] = None,
        quota_lookup: Optional[
            Callable[[str], Optional[QuotaConfig]]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default = default or QuotaConfig()
        self._quota_lookup = quota_lookup
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, _Bucket] = {}
        self._inflight: dict[str, int] = {}
        self._throttled: dict[str, int] = {}
        self._admitted: dict[str, int] = {}

    def quota_for(self, tenant_id: str) -> QuotaConfig:
        if self._quota_lookup is not None:
            override = self._quota_lookup(tenant_id)
            if override is not None:
                return override
        return self.default

    # -- admission ----------------------------------------------------------

    def admit(self, tenant_id: str) -> None:
        """Admit one chat turn for ``tenant_id``; the turn holds an
        in-flight slot until :meth:`release`.

        Charges ``tokens_per_turn`` from the tenant's bucket and
        acquires an in-flight slot atomically; raises
        :class:`TenantThrottled` (with a refill-derived ``retry_after``
        hint) when either limit is exhausted. Nothing is charged on a
        rejection, and a rejected turn has nothing to release.
        ``tenant_inflight`` is published under the lock.
        """
        quota = self.quota_for(tenant_id)
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(tenant_id)
            if bucket is None:
                bucket = self._buckets[tenant_id] = _Bucket(
                    quota.burst, now
                )
            bucket.refill(quota, now)
            inflight = self._inflight.get(tenant_id, 0)
            if inflight >= quota.max_inflight:
                self._throttled[tenant_id] = (
                    self._throttled.get(tenant_id, 0) + 1
                )
                reason, retry_after = "inflight", self._retry_hint(quota)
            elif bucket.tokens < quota.tokens_per_turn:
                self._throttled[tenant_id] = (
                    self._throttled.get(tenant_id, 0) + 1
                )
                reason = "rate"
                retry_after = round(
                    (quota.tokens_per_turn - bucket.tokens)
                    / quota.refill_per_second,
                    4,
                )
            else:
                bucket.tokens -= quota.tokens_per_turn
                self._inflight[tenant_id] = inflight + 1
                self._admitted[tenant_id] = (
                    self._admitted.get(tenant_id, 0) + 1
                )
                _INFLIGHT.labels(tenant_id)(inflight + 1)
                reason, retry_after = "", 0.0
        if reason:
            _THROTTLED.labels(tenant_id, reason)()
            _REQUESTS.labels(tenant_id, "throttled")()
            raise TenantThrottled(
                tenant_id,
                f"tenant {tenant_id!r} over quota ({reason}); "
                f"retry in {retry_after:.2f}s",
                retry_after=max(retry_after, 0.001),
            )
        _REQUESTS.labels(tenant_id, "admitted")()

    def release(self, tenant_id: str) -> None:
        """Free the in-flight slot of a turn :meth:`admit` let in."""
        with self._lock:
            inflight = max(0, self._inflight.get(tenant_id, 0) - 1)
            self._inflight[tenant_id] = inflight
            _INFLIGHT.labels(tenant_id)(inflight)

    def _retry_hint(self, quota: QuotaConfig) -> float:
        # An in-flight rejection frees no tokens on a schedule; hint
        # one turn's refill time as the natural backoff unit.
        return round(
            max(quota.tokens_per_turn, 1.0) / quota.refill_per_second, 4
        )

    def check(self, tenant_id: str) -> None:
        """Non-charging admission probe (the serving scheduler hook).

        Turns admitted through :meth:`admit` hold an in-flight slot, so
        their downstream LLM calls always pass. What this rejects is
        tenant-tagged work that *bypassed* turn admission while the
        tenant's bucket is empty — admitting it would only spend batch
        windows on a tenant the quota layer is already rejecting.
        """
        quota = self.quota_for(tenant_id)
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(tenant_id)
            if bucket is not None:
                bucket.refill(quota, now)
                exhausted = bucket.tokens < quota.tokens_per_turn
            else:
                exhausted = False
            covered = self._inflight.get(tenant_id, 0) > 0
        if exhausted and not covered:
            retry_after = self._retry_hint(quota)
            _THROTTLED.labels(tenant_id, "scheduler")()
            raise TenantThrottled(
                tenant_id,
                f"tenant {tenant_id!r} over quota at the scheduler; "
                f"retry in {retry_after:.2f}s",
                retry_after=retry_after,
            )

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-tenant quota state (tokens, in-flight, counts)."""
        now = self._clock()
        with self._lock:
            tenant_ids = (
                set(self._buckets)
                | set(self._inflight)
                | set(self._throttled)
            )
            rows: dict[str, dict[str, Any]] = {}
            for tenant_id in sorted(tenant_ids):
                quota = self.quota_for(tenant_id)
                bucket = self._buckets.get(tenant_id)
                if bucket is not None:
                    bucket.refill(quota, now)
                    tokens = round(bucket.tokens, 3)
                else:
                    tokens = quota.burst
                rows[tenant_id] = {
                    "tokens": tokens,
                    "burst": quota.burst,
                    "inflight": self._inflight.get(tenant_id, 0),
                    "max_inflight": quota.max_inflight,
                    "admitted": self._admitted.get(tenant_id, 0),
                    "throttled": self._throttled.get(tenant_id, 0),
                }
        return rows
