"""The process-wide cache manager: tiers, metrics, lookup outcomes.

One :class:`CacheManager` owns the three tier stores. Wired call
sites (the SMMF client, the RAG knowledge base and embedder, the SQL
engine) never touch stores directly — they call :meth:`cached` (or,
from a coroutine, :meth:`acached`), which

- runs the lookup/compute under **single-flight** deduplication,
- opens no span of its own: it appends the outcome (``hit`` or
  ``miss``) to a ``cache.<tier>`` attribute of the caller's span, so
  ``repro trace`` / ``/trace`` show ``cache.sql=miss,hit`` on the span
  that looked up twice, and a miss's compute spans nest directly
  under the caller,
- publishes hit/miss/eviction counters and latency histograms through
  the unified :mod:`repro.obs` metrics registry.

Every tier always exists, so each call site has exactly one path:
the lookup, with its compute callback. The module-level manager is a
full :class:`CacheManager` from import, so components built outside a
booted instance (bare ``deploy()``, a standalone ``Database``) cache
like booted ones; ``DBGPT.boot`` installs the instance's sizing via
:func:`configure_cache`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Awaitable, Callable, Optional

from repro.cache.config import TIER_NAMES, CacheConfig
from repro.cache.store import CacheStats, CacheStore
from repro.obs.metrics import Counter, Histogram, MetricHandle
from repro.obs.span import current_span
from repro.runtime import perf_clock
from repro.tenancy.context import current_tenant

# The ``tenant`` label exists only for tenant-scoped lookups (a None
# value drops it), so untenanted label sets match pre-tenancy builds.
# Each lookup is observed once: a hit (coalesced waiters too) or a miss.
_HIT_LATENCY = MetricHandle(
    Histogram, "cache_hit_latency_ms", "latency of cache hits",
    ("tier", "tenant"),
)
_MISS_COMPUTE = MetricHandle(
    Histogram, "cache_miss_compute_ms", "compute latency behind cache misses",
    ("tier", "tenant"),
)
_EVICTIONS = MetricHandle(
    Counter, "cache_evictions_total", "entries evicted by tier",
    ("tier", "reason", "tenant"),
)
#: The span attribute each tier's outcomes go under.
_OUTCOME_ATTRIBUTES = {tier: f"cache.{tier}" for tier in TIER_NAMES}


class _Partitions(dict):
    """``(tenant, tier)`` -> that tenant's private store. Reading an
    existing partition, or copying the map, is one dict operation with
    no lock; ``__missing__`` creates a partition under the lock, after
    a re-read, so racing first lookups share the one store created."""

    def __init__(self, create: Callable[[tuple[str, str]], CacheStore]):
        super().__init__()
        self._create = create
        self._lock = threading.Lock()

    def __missing__(self, key: tuple[str, str]) -> CacheStore:
        with self._lock:
            store = self.get(key)
            if store is None:
                store = self[key] = self._create(key)
            return store


class CacheManager:
    """Owns one :class:`CacheStore` per tier.

    With tenant partitions enabled (the tenancy fabric calls
    :meth:`enable_tenant_partitions`), lookups made inside a
    :func:`~repro.tenancy.context.tenant_scope` are served from a
    lazily-created per-``(tenant, tier)`` store with its own capacity
    budget: one tenant's working set can neither evict another's
    entries nor poison them, and metrics for those lookups carry a
    ``tenant`` label. Lookups outside any tenant scope use the shared
    stores.
    """

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or CacheConfig()
        self._clock = clock
        #: Per-(tenant, tier) stores, made on first use once partition
        #: mode is on (``_partition_capacity`` set, by one store).
        self._partitions = _Partitions(self._new_partition)
        self._partition_capacity: Optional[int] = None
        self._stores: dict[str, CacheStore] = {}
        for tier in TIER_NAMES:
            settings = self.config.tier(tier)
            self._stores[tier] = CacheStore(
                capacity=settings.capacity,
                ttl_seconds=settings.ttl_seconds,
                clock=clock,
                on_evict=self._evict_hook(tier),
            )

    # -- tier access -------------------------------------------------------

    def store(self, tier: str) -> CacheStore:
        """The tier's shared store."""
        return self._stores[tier]

    # -- tenant partitions ---------------------------------------------------

    def enable_tenant_partitions(self, capacity: int) -> None:
        """Switch on per-tenant cache partitions (tenancy fabric).

        Each tenant-scoped lookup gets a private per-tier store bounded
        to ``capacity`` entries. Existing shared stores are untouched —
        work outside any tenant scope keeps its cache behavior.
        """
        if capacity <= 0:
            raise ValueError("partition capacity must be positive")
        self._partition_capacity = capacity

    def _store_for(self, tier: str, tenant: Optional[str]) -> CacheStore:
        """The store serving this lookup: the tenant's partition when
        partition mode is on and a tenant scope is active, else the
        shared tier store."""
        if tenant is None or self._partition_capacity is None:
            return self._stores[tier]
        return self._partitions[tenant, tier]

    def _new_partition(self, key: tuple[str, str]) -> CacheStore:
        tenant, tier = key
        return CacheStore(
            capacity=self._partition_capacity,
            ttl_seconds=self._stores[tier].ttl_seconds,
            clock=self._clock,
            on_evict=self._evict_hook(tier, tenant),
        )

    # -- the one call sites use --------------------------------------------

    def cached(
        self, tier: str, key: Any, compute: Callable[[], Any]
    ) -> Any:
        """Serve ``key`` from ``tier``, computing (once) on a miss.

        ``compute`` may return :class:`~repro.cache.store.Uncached` to
        hand its value to this caller and its coalesced waiters without
        storing it.
        """
        tenant = current_tenant()
        store = self._store_for(tier, tenant)
        started = perf_clock()
        value, hit = store.get_or_compute(key, compute)
        self._record(tier, tenant, hit, started)
        return value

    async def acached(
        self, tier: str, key: Any, compute: Callable[[], Awaitable[Any]]
    ) -> Any:
        """:meth:`cached` for an awaitable ``compute``: same store,
        single-flight, outcome and metrics, awaited instead of blocked
        on."""
        tenant = current_tenant()
        store = self._store_for(tier, tenant)
        started = perf_clock()
        value, hit = await store.aget_or_compute(key, compute)
        self._record(tier, tenant, hit, started)
        return value

    @staticmethod
    def _record(
        tier: str, tenant: Optional[str], hit: bool, started: float
    ) -> None:
        elapsed_ms = (perf_clock() - started) * 1000.0
        outcome = "hit" if hit else "miss"
        if hit:
            _HIT_LATENCY.labels(tier, tenant)(elapsed_ms)
        else:
            _MISS_COMPUTE.labels(tier, tenant)(elapsed_ms)
        span = current_span()
        if span is not None:
            # Every outcome of the tier under this span, in order.
            attribute = _OUTCOME_ATTRIBUTES[tier]
            earlier = span.attributes.get(attribute)
            span.attributes[attribute] = (
                outcome if earlier is None else f"{earlier},{outcome}"
            )

    def peek_stale(self, tier: str, key: Any) -> tuple[bool, Any]:
        """Read an entry even if expired, without touching statistics.

        Used by the resilience layer to serve stale answers when the
        stack behind the cache is down; ``(False, None)`` when the key
        was never cached.
        """
        return self._store_for(tier, current_tenant()).peek_stale(key)

    def _evict_hook(self, tier: str, tenant: Optional[str] = None):
        # Partition evictions are the tenant's own budget at work —
        # the tenant label makes noisy-neighbor churn attributable.
        def on_evict(_key: Any, reason: str) -> None:
            _EVICTIONS.labels(tier, reason, tenant)()

        return on_evict

    # -- operations --------------------------------------------------------

    def clear(self, tier: Optional[str] = None) -> int:
        """Drop cached entries (one tier, or all); returns the count.

        Partition stores are cleared alongside the shared tier they
        shadow, so "clear the cache" means every tenant's too.
        """
        dropped = 0
        for name, store in self._stores.items():
            if tier is None or name == tier:
                dropped += store.clear()
        for (_tenant, name), store in self._partitions.copy().items():
            if tier is None or name == tier:
                dropped += store.clear()
        return dropped

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-tier statistics."""
        snapshot: dict[str, dict[str, Any]] = {}
        for tier, store in self._stores.items():
            stats: CacheStats = store.stats()
            snapshot[tier] = {
                "size": len(store),
                "capacity": store.capacity,
                "ttl_seconds": store.ttl_seconds,
                **stats.to_dict(),
            }
        return snapshot

    def tenant_stats(self) -> dict[str, dict[str, dict[str, Any]]]:
        """Per-tenant, per-tier partition statistics.

        Empty until partition mode is on and tenants have cached
        something; the shared stores' numbers stay in :meth:`stats`.
        """
        snapshot: dict[str, dict[str, dict[str, Any]]] = {}
        for (tenant, tier), store in self._partitions.copy().items():
            stats: CacheStats = store.stats()
            snapshot.setdefault(tenant, {})[tier] = {
                "size": len(store),
                "capacity": store.capacity,
                **stats.to_dict(),
            }
        return snapshot

    def render_stats(self) -> str:
        """A plain-text stats table for the CLI and REPL."""
        header = (
            f"{'tier':<10} {'size':>9} {'hits':>7} {'misses':>7} "
            f"{'coalesced':>9} {'hit-rate':>8} {'evicted':>8}"
        )
        lines = [header, "-" * len(header)]
        for tier, row in self.stats().items():
            size = f"{row['size']}/{row['capacity']}"
            evicted = row["evictions"] + row["expirations"]
            lines.append(
                f"{tier:<10} {size:>9} {row['hits']:>7} "
                f"{row['misses']:>7} {row['coalesced']:>9} "
                f"{row['hit_rate']:>8.1%} {evicted:>8}"
            )
        return "\n".join(lines)


#: Process-wide manager used by every wired call site. Unbooted
#: components cache in it from import; ``DBGPT.boot`` replaces it with
#: one sized by the instance's :class:`~repro.core.config.DbGptConfig`.
_manager = CacheManager()


def get_cache_manager() -> CacheManager:
    return _manager


def set_cache_manager(manager: CacheManager) -> CacheManager:
    """Swap the global manager (tests); returns the previous one."""
    global _manager
    previous, _manager = _manager, manager
    return previous


def configure_cache(config: CacheConfig) -> CacheManager:
    """Install a fresh manager built from ``config`` and return it."""
    global _manager
    _manager = CacheManager(config)
    return _manager
