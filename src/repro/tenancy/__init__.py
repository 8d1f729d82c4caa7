"""repro.tenancy — the multi-tenant session fabric.

Four pillars over the singleton facade: a tenant registry, a bounded
server-side session store, a quota layer in front of the serving
scheduler, and tenant-partitioned caching + observability. Every
booted facade carries a fabric; there is no single-tenant path (see
``docs/tenancy.md``).

This module deliberately imports only the config and the ambient
tenant context at load time — :mod:`repro.cache.manager` imports the
context, so pulling the fabric (which imports the cache manager) in
here would be a cycle. The heavier pieces load lazily on first
attribute access.
"""

from __future__ import annotations

from repro.tenancy.config import QuotaConfig, TenancyConfig
from repro.tenancy.context import current_tenant, tenant_scope

_LAZY = {
    "Tenant": "repro.tenancy.registry",
    "TenantRegistry": "repro.tenancy.registry",
    "TenancyError": "repro.tenancy.registry",
    "UnknownTenant": "repro.tenancy.registry",
    "SessionStore": "repro.tenancy.sessions",
    "UnknownSession": "repro.tenancy.sessions",
    "QuotaManager": "repro.tenancy.quotas",
    "TenantThrottled": "repro.tenancy.quotas",
    "TenantFabric": "repro.tenancy.fabric",
    "TenantForbidden": "repro.tenancy.fabric",
}

__all__ = [
    "QuotaConfig",
    "TenancyConfig",
    "current_tenant",
    "tenant_scope",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)
