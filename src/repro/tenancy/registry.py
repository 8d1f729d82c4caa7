"""Tenant registry + consistent-hash shard router.

The registry is the control plane's source of truth: which tenants
exist, what resources each one owns (datasource, knowledge base,
fine-tuned model preference, quota override), and which shard of the
data plane serves it.

Placement uses a classic consistent-hash ring: every physical shard
contributes ``virtual_nodes`` points, a tenant routes to the first
point clockwise of its own hash, and adding or removing one shard
moves only the key ranges adjacent to that shard's points (~1/n of
the keyspace) instead of reshuffling every tenant. Hashes come from
:mod:`hashlib` (BLAKE2b), never Python's ``hash()`` — the builtin is
salted per process, which would re-place every tenant on restart.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
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


def _point(label: str) -> int:
    """A stable 64-bit ring position for ``label``."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class HashRing:
    """Consistent-hash ring mapping keys onto named shards.

    Thread-safe; topology changes (:meth:`add_shard` /
    :meth:`remove_shard`) rebuild the sorted point list atomically
    under the ring lock, so concurrent :meth:`route` calls always see
    a complete ring.
    """

    def __init__(self, shards: int = 4, virtual_nodes: int = 64) -> None:
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        self._virtual_nodes = virtual_nodes
        self._lock = threading.Lock()
        self._shards: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for index in range(shards):
            self.add_shard(f"shard-{index}")

    def add_shard(self, name: str) -> None:
        with self._lock:
            if name in self._shards:
                raise ValueError(f"shard {name!r} already on the ring")
            self._shards.add(name)
            for replica in range(self._virtual_nodes):
                self._points.append((_point(f"{name}#{replica}"), name))
            self._points.sort()

    def remove_shard(self, name: str) -> None:
        with self._lock:
            if name not in self._shards:
                raise ValueError(f"shard {name!r} not on the ring")
            if len(self._shards) == 1:
                raise ValueError("cannot remove the last shard")
            self._shards.discard(name)
            self._points = [
                point for point in self._points if point[1] != name
            ]

    def route(self, key: str) -> str:
        """The shard owning ``key`` (first point clockwise)."""
        with self._lock:
            if not self._points:
                raise TenancyError("hash ring has no shards")
            position = _point(key)
            index = bisect_right(self._points, (position, "￿"))
            if index == len(self._points):
                index = 0
            return self._points[index][1]

    def shards(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)


class TenantRegistry:
    """Thread-safe tenant directory with consistent-hash placement."""

    def __init__(self, ring: Optional[HashRing] = None) -> None:
        self.ring = ring or HashRing()
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

    def shard_for(self, tenant_id: str) -> str:
        """Which data-plane shard serves ``tenant_id``. Placement is
        pure routing — unregistered ids still map deterministically."""
        return self.ring.route(tenant_id)

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
