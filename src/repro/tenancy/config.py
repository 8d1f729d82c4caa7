"""Configuration for the multi-tenant session fabric.

Everything here is plain data so :class:`repro.core.config.DbGptConfig`
can embed a :class:`TenancyConfig` without importing anything heavy.
Like the serving and resilience subsystems, tenancy cannot be turned
off: every booted facade carries its fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class QuotaConfig:
    """Admission limits for one tenant (or the fleet default).

    The token bucket refills continuously at ``refill_per_second`` up
    to ``burst``; every chat turn costs ``tokens_per_turn``. A tenant
    whose bucket is empty — or who already has ``max_inflight`` turns
    running — is rejected with structured backpressure (a 429 carrying
    ``retry_after``) instead of queueing without bound.
    """

    refill_per_second: float = 10.0
    burst: float = 20.0
    tokens_per_turn: float = 1.0
    max_inflight: int = 8

    def __post_init__(self) -> None:
        if self.refill_per_second <= 0:
            raise ValueError("refill_per_second must be positive")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        if self.tokens_per_turn < 0:
            raise ValueError("tokens_per_turn must be >= 0")
        if self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")


@dataclass
class TenancyConfig:
    """Configuration for :class:`repro.tenancy.fabric.TenantFabric`.

    Every booted :class:`repro.core.DBGPT` builds its fabric; there is
    no single-tenant path. ``enabled`` is kept only because existing
    callers spell ``TenancyConfig(enabled=True)`` — among them the
    production profile of the end-to-end benchmark
    (``benchmarks/e2e/stack.py``); ``False`` is rejected.

    The session store keeps at most ``max_sessions_per_tenant``
    conversations per tenant (LRU eviction beyond that, never evicting
    a session with an in-flight turn) and expires idle sessions after
    ``session_ttl_seconds``. ``cache_partition_capacity`` is each
    tenant's private entry budget per cache tier — one tenant can
    never evict or poison another tenant's cached entries.
    """

    enabled: bool = True
    #: Per-tenant bound on stored sessions (LRU beyond this).
    max_sessions_per_tenant: int = 64
    #: Seconds an idle session survives; ``None`` disables expiry.
    session_ttl_seconds: Optional[float] = None
    #: Default admission quota; individual tenants may override.
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    #: Per-tenant, per-tier cache entry budget; every tenant-scoped
    #: lookup is served from the tenant's own partition.
    cache_partition_capacity: int = 256

    def __post_init__(self) -> None:
        if not self.enabled:
            raise ValueError(
                "the tenant fabric cannot be disabled; the facade has "
                "no single-tenant path"
            )
        if self.max_sessions_per_tenant <= 0:
            raise ValueError("max_sessions_per_tenant must be positive")
        if (
            self.session_ttl_seconds is not None
            and self.session_ttl_seconds <= 0
        ):
            raise ValueError("session_ttl_seconds must be positive (or None)")
        if self.cache_partition_capacity <= 0:
            raise ValueError("cache_partition_capacity must be positive")
