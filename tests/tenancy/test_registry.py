"""Tests for the tenant registry."""

import pytest

from repro.tenancy.config import QuotaConfig
from repro.tenancy.registry import Tenant, TenantRegistry, UnknownTenant


class TestTenantRegistry:
    def test_register_get_remove(self):
        registry = TenantRegistry()
        registry.register(Tenant("acme", name="Acme Corp"))
        assert "acme" in registry
        assert registry.get("acme").name == "Acme Corp"
        registry.remove("acme")
        with pytest.raises(UnknownTenant):
            registry.get("acme")

    def test_duplicate_registration_rejected(self):
        registry = TenantRegistry()
        registry.register(Tenant("acme"))
        with pytest.raises(ValueError):
            registry.register(Tenant("acme"))

    def test_invalid_tenant_ids_rejected(self):
        with pytest.raises(ValueError):
            Tenant("")
        with pytest.raises(ValueError):
            Tenant("a/b")

    def test_quota_for_override_and_default(self):
        registry = TenantRegistry()
        quota = QuotaConfig(refill_per_second=1.0, burst=2.0)
        registry.register(Tenant("limited", quota=quota))
        registry.register(Tenant("default"))
        assert registry.quota_for("limited") is quota
        assert registry.quota_for("default") is None
        assert registry.quota_for("never-registered") is None

    def test_tenant_ids_sorted(self):
        registry = TenantRegistry()
        for tenant_id in ("zeta", "acme", "mid"):
            registry.register(Tenant(tenant_id))
        assert registry.tenant_ids() == ["acme", "mid", "zeta"]
        assert len(registry) == 3
