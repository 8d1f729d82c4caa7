"""Tenant registry.

The registry is the control plane's source of truth: which tenants
exist and what resources each one owns (datasource, knowledge base,
fine-tuned model preference, quota override).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.tenancy.config import QuotaConfig


class TenancyError(Exception):
    """Base class for tenancy control-plane failures."""


class UnknownTenant(TenancyError):
    """The tenant id is not registered."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(f"unknown tenant {tenant_id!r}")
        self.tenant_id = tenant_id


@dataclass
class Tenant:
    """One registered tenant and its resource bindings.

    ``source``/``knowledge`` are optional overrides: a tenant without
    its own falls back to the instance-shared resources.
    ``model_preference`` records which (typically fine-tuned) model the
    tenant's SQL generation should prefer; the fabric surfaces it to
    per-tenant app construction. ``quota`` overrides the fleet default
    admission limits for this tenant only.
    """

    tenant_id: str
    name: str = ""
    source: Any = None
    knowledge: Any = None
    model_preference: Optional[str] = None
    quota: Optional[QuotaConfig] = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tenant_id or "/" in self.tenant_id:
            raise ValueError(
                f"tenant id must be a non-empty string without '/', "
                f"got {self.tenant_id!r}"
            )
        if not self.name:
            self.name = self.tenant_id


class TenantRegistry:
    """Thread-safe tenant directory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}

    def register(self, tenant: Tenant) -> Tenant:
        with self._lock:
            if tenant.tenant_id in self._tenants:
                raise ValueError(
                    f"tenant {tenant.tenant_id!r} already registered"
                )
            self._tenants[tenant.tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenant(tenant_id)
        return tenant

    def remove(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.pop(tenant_id, None)
        if tenant is None:
            raise UnknownTenant(tenant_id)
        return tenant

    def tenant_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def quota_for(self, tenant_id: str) -> Optional[QuotaConfig]:
        """The tenant's quota override, or None for the fleet default
        (unknown tenants also get the default — admission rejects them
        before quota state matters)."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        return tenant.quota if tenant is not None else None

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)
