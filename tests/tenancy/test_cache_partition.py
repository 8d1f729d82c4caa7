"""Tests for tenant-partitioned caching."""

import sys
import threading

import repro.cache.manager as manager_module
from repro.cache.config import CacheConfig
from repro.cache.manager import CacheManager, set_cache_manager
from repro.obs.metrics import get_registry
from repro.tenancy.context import tenant_scope


def make_manager(partition_capacity=4):
    manager = CacheManager(CacheConfig())
    if partition_capacity:
        manager.enable_tenant_partitions(partition_capacity)
    set_cache_manager(manager)
    return manager


class TestPartitionSelection:
    def test_tenants_never_share_entries(self):
        manager = make_manager()
        computes = []

        def compute_for(tenant):
            def compute():
                computes.append(tenant)
                return f"answer-{tenant}"

            return compute

        with tenant_scope("acme"):
            value_a = manager.cached(
                "inference", "shared-key", compute_for("acme")
            )
        with tenant_scope("globex"):
            value_b = manager.cached(
                "inference", "shared-key", compute_for("globex")
            )
        # Same key, different tenants: both computed, neither poisoned
        # by the other's cached answer.
        assert value_a == "answer-acme"
        assert value_b == "answer-globex"
        assert computes == ["acme", "globex"]

    def test_tenant_hits_stay_in_partition(self):
        manager = make_manager()
        with tenant_scope("acme"):
            manager.cached("inference", "k", lambda: "v1")
            assert manager.cached("inference", "k", lambda: "v2") == "v1"
        stats = manager.tenant_stats()
        assert stats["acme"]["inference"]["hits"] == 1
        assert stats["acme"]["inference"]["misses"] == 1

    def test_untenanted_lookups_use_shared_store(self):
        manager = make_manager()
        manager.cached("inference", "k", lambda: "shared")
        with tenant_scope("acme"):
            # The tenant's partition is empty: the shared entry is
            # invisible from inside a tenant scope.
            assert (
                manager.cached("inference", "k", lambda: "private")
                == "private"
            )
        assert manager.cached("inference", "k", lambda: "x") == "shared"

    def test_racing_first_lookups_create_one_store(self, monkeypatch):
        manager = make_manager()
        created = []

        class CountingStore(manager_module.CacheStore):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(manager_module, "CacheStore", CountingStore)
        start = threading.Barrier(8)
        seen = []

        def touch():
            start.wait()
            seen.append(manager._store_for("sql", "acme"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(created) == 1
        assert len(seen) == 8
        assert all(store is created[0] for store in seen)

    def test_partitions_disabled_without_enable(self):
        manager = make_manager(partition_capacity=0)
        with tenant_scope("acme"):
            manager.cached("inference", "k", lambda: "v")
        # No partition mode: the lookup used the shared store.
        assert manager.tenant_stats() == {}
        assert manager.cached("inference", "k", lambda: "other") == "v"


class TestEvictionBudgets:
    def test_one_tenant_cannot_evict_another(self):
        manager = make_manager(partition_capacity=2)
        with tenant_scope("quiet"):
            manager.cached("inference", "precious", lambda: "kept")
        with tenant_scope("noisy"):
            for i in range(50):
                manager.cached("inference", f"flood-{i}", lambda: "x")
        with tenant_scope("quiet"):
            value = manager.cached(
                "inference", "precious", lambda: "recomputed"
            )
        assert value == "kept"
        noisy = manager.tenant_stats()["noisy"]["inference"]
        assert noisy["size"] <= 2
        assert noisy["evictions"] >= 48

    def test_partition_evictions_carry_tenant_label(self):
        manager = make_manager(partition_capacity=1)
        with tenant_scope("noisy"):
            manager.cached("inference", "a", lambda: "x")
            manager.cached("inference", "b", lambda: "x")
        assert (
            get_registry()
            .counter("cache_evictions_total", "")
            .value(tier="inference", reason="lru", tenant="noisy")
            >= 1
        )


class TestMetricsParity:
    def test_untenanted_metrics_have_no_tenant_label(self):
        manager = make_manager()
        manager.cached("inference", "k", lambda: "v")
        manager.cached("inference", "k", lambda: "v")
        registry = get_registry()
        # Exactly the pre-tenancy label sets: (tier,).
        for name in ("cache_miss_compute_ms", "cache_hit_latency_ms"):
            histogram = registry.histogram(name)
            assert histogram.label_sets() == [{"tier": "inference"}]
            assert histogram.count(tier="inference") == 1

    def test_tenant_metrics_carry_tenant_label(self):
        manager = make_manager()
        with tenant_scope("acme"):
            manager.cached("inference", "k", lambda: "v")
            manager.cached("inference", "k", lambda: "v")
        hits = get_registry().histogram("cache_hit_latency_ms")
        assert hits.count(tier="inference", tenant="acme") == 1


class TestOperations:
    def test_clear_drops_partitions_too(self):
        manager = make_manager()
        manager.cached("inference", "shared", lambda: "v")
        with tenant_scope("acme"):
            manager.cached("inference", "private", lambda: "v")
        assert manager.clear() == 2
        assert manager.tenant_stats()["acme"]["inference"]["size"] == 0

    def test_peek_stale_is_tenant_scoped(self):
        manager = make_manager()
        with tenant_scope("acme"):
            manager.cached("inference", "k", lambda: "acme-answer")
            found, value = manager.peek_stale("inference", "k")
            assert found and value == "acme-answer"
        found, _ = manager.peek_stale("inference", "k")
        assert not found
