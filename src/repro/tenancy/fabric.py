"""The tenant fabric: the data plane behind a multi-tenant DB-GPT.

:class:`TenantFabric` is what turns the singleton facade into a
tenant-aware system. It owns the four pillars:

- the **tenant registry** mapping each ``tenant_id`` to its resource
  bindings (datasource, knowledge base, fine-tuned model preference,
  quota override);
- the **server-side session store** — sessions are created/resumed by
  id, history is persisted server-side, bounded per tenant;
- **admission quotas** — per-tenant token buckets and in-flight caps
  enforced in front of the serving scheduler (plus a non-charging
  admission hook installed *on* the scheduler, so tenant-tagged work
  from direct SMMF clients is subject to the same limits);
- **partitioned caching and observability** — the fabric switches the
  process cache manager into tenant-partition mode and runs every
  turn inside a :func:`~repro.tenancy.context.tenant_scope`, which is
  what stamps the ``tenant`` attribute on root spans and routes cache
  traffic to the tenant's private partition.

Every booted :class:`repro.core.DBGPT` builds its fabric.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional

from repro.cache.manager import get_cache_manager
from repro.core.session import ChatTurn, SessionRecord
from repro.obs.metrics import Histogram, MetricHandle
from repro.runtime import perf_clock
from repro.tenancy.config import QuotaConfig, TenancyConfig
from repro.tenancy.context import tenant_scope
from repro.tenancy.quotas import QuotaManager
from repro.tenancy.registry import TenancyError, Tenant, TenantRegistry
from repro.tenancy.sessions import SessionStore

#: ``ok``: the answer's (``true``/``false``), or ``error`` if it raised.
_TURN_LATENCY = MetricHandle(
    Histogram, "tenant_turn_latency_ms", "end-to-end tenant turn latency",
    ("tenant", "ok"),
)


class TenantForbidden(TenancyError):
    """The caller's tenant does not own the addressed resource."""

    def __init__(self, tenant_id: str, session_id: str) -> None:
        super().__init__(
            f"session {session_id!r} does not belong to tenant "
            f"{tenant_id!r}"
        )
        self.tenant_id = tenant_id
        self.session_id = session_id


class TenantFabric:
    """Registry, session store and quotas over one facade.

    ``dbgpt`` is the booted facade the fabric extends; tenants without
    their own datasource share its applications, tenants registered
    with one get a private application set built against it.
    """

    def __init__(
        self,
        dbgpt: Any,
        config: Optional[TenancyConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._dbgpt = dbgpt
        self.config = config or TenancyConfig()
        self.registry = TenantRegistry()
        self.store = SessionStore(self.config, clock=clock, rng=rng)
        self.quotas = QuotaManager(
            self.config.quota,
            quota_lookup=self.registry.quota_for,
            clock=clock,
        )
        self._tenant_apps: dict[str, dict[str, Any]] = {}
        get_cache_manager().enable_tenant_partitions(
            self.config.cache_partition_capacity
        )
        dbgpt.controller.scheduler.set_admission_hook(
            self._scheduler_admission_hook
        )

    # -- control plane -------------------------------------------------------

    def register_tenant(
        self,
        tenant_id: str,
        name: str = "",
        source: Any = None,
        documents: Any = None,
        model_preference: Optional[str] = None,
        quota: Optional[QuotaConfig] = None,
        **metadata: Any,
    ) -> Tenant:
        """Register a tenant and build its private resources.

        With a ``source``, the tenant gets its own application set over
        that datasource (honoring ``model_preference`` for SQL
        generation — the name must be a deployed model); with
        ``documents``, a private knowledge base and knowledge-QA app.
        Without either, the tenant shares the facade's applications —
        isolation then comes from sessions, quotas and cache
        partitions.
        """
        knowledge = None
        if documents is not None:
            from repro.rag.knowledge_base import KnowledgeBase

            knowledge = KnowledgeBase(name=f"kb-{tenant_id}")
            knowledge.add_documents(list(documents))
        tenant = self.registry.register(
            Tenant(
                tenant_id=tenant_id,
                name=name,
                source=source,
                knowledge=knowledge,
                model_preference=model_preference,
                quota=quota,
                metadata=dict(metadata),
            )
        )
        apps = self._build_tenant_apps(tenant)
        if apps:
            self._tenant_apps[tenant_id] = apps
        return tenant

    def _build_tenant_apps(self, tenant: Tenant) -> dict[str, Any]:
        """Private applications for a tenant with its own resources."""
        apps: dict[str, Any] = {}
        client = self._dbgpt.client
        if tenant.source is not None:
            from repro.core.dbgpt import build_source_apps

            apps.update(
                build_source_apps(
                    client,
                    tenant.source,
                    sql_model=tenant.model_preference or "sql-coder",
                )
            )
        if tenant.knowledge is not None:
            from repro.apps.knowledge_qa import KnowledgeQAApp

            apps["knowledge_qa"] = KnowledgeQAApp(
                client, tenant.knowledge
            )
        return apps

    def app_for(self, tenant_id: str, app_name: str) -> Any:
        """The tenant's private app when it has one, else the shared
        application of the same name."""
        key = app_name.lower()
        private = self._tenant_apps.get(tenant_id, {})
        if key in private:
            return private[key]
        return self._dbgpt.app(key)

    def app_names(self, tenant_id: str) -> list[str]:
        names = set(self._dbgpt.app_names())
        names.update(self._tenant_apps.get(tenant_id, {}))
        return sorted(names)

    # -- sessions ------------------------------------------------------------

    def open_session(
        self,
        tenant_id: str,
        app_name: str,
        session_id: Optional[str] = None,
    ) -> SessionRecord:
        """Create or resume a session after validating tenant + app."""
        self.registry.get(tenant_id)
        self.app_for(tenant_id, app_name)  # raises KeyError if unknown
        return self.store.create(
            tenant_id, app_name.lower(), session_id=session_id
        )

    def session(self, tenant_id: str, session_id: str) -> SessionRecord:
        """Look up a session, enforcing tenant ownership."""
        record = self.store.get(session_id)
        if record.tenant_id != tenant_id:
            raise TenantForbidden(tenant_id, session_id)
        return record

    # -- data plane ----------------------------------------------------------

    def chat(
        self,
        tenant_id: str,
        text: str,
        session_id: Optional[str] = None,
        app_name: Optional[str] = None,
    ):
        """One tenant turn: admit, pin, run, persist.

        Raises :class:`~repro.tenancy.registry.UnknownTenant`,
        :class:`~repro.tenancy.sessions.UnknownSession`,
        :class:`TenantForbidden` or
        :class:`~repro.tenancy.quotas.TenantThrottled`; returns
        ``(record, response)`` so callers see both the session (its id
        may be fresh) and the answer.
        """
        self.registry.get(tenant_id)
        if session_id is not None:
            record = self.store.get(session_id, pin=True)
            if record.tenant_id != tenant_id:
                self.store.unpin(record)
                raise TenantForbidden(tenant_id, session_id)
        else:
            record = self.open_session(
                tenant_id, app_name or self._default_app(tenant_id)
            )
            self.store.pin(record)
        admitted = False
        ok = "error"
        try:
            app = self.app_for(tenant_id, app_name or record.app_name)
            started = perf_clock()
            self.quotas.admit(tenant_id)
            admitted = True
            with tenant_scope(tenant_id):
                # The record lock is held across the whole turn so
                # concurrent sends into one session serialize and
                # history order matches execution order.
                with record.lock:
                    response = app.chat(text)
                    record.append_turn(
                        ChatTurn(
                            user=text,
                            assistant=response.text,
                            ok=response.ok,
                            metadata=dict(response.metadata),
                        )
                    )
            ok = str(response.ok).lower()
        finally:
            if admitted:
                self.quotas.release(tenant_id)
                _TURN_LATENCY.labels(tenant_id, ok)(
                    (perf_clock() - started) * 1000.0
                )
            self.store.unpin(record)
        return record, response

    def _default_app(self, tenant_id: str) -> str:
        names = self.app_names(tenant_id)
        if "chat2db" in names:
            return "chat2db"
        if not names:
            raise TenancyError(
                "no applications registered; load a data source first"
            )
        return names[0]

    def _scheduler_admission_hook(self, model: str, request: Any) -> None:
        """Installed on the serving scheduler: tenant-tagged work is
        checked (not charged) against the tenant's quota state."""
        from repro.tenancy.context import current_tenant

        tenant_id = current_tenant()
        if tenant_id is not None:
            self.quotas.check(tenant_id)

    # -- introspection -------------------------------------------------------

    def describe(self) -> list[dict[str, Any]]:
        """One control-plane row per tenant (CLI/API surface)."""
        quotas = self.quotas.snapshot()
        sessions = self.store.stats()
        manager = get_cache_manager()
        rows = []
        for tenant_id in self.registry.tenant_ids():
            tenant = self.registry.get(tenant_id)
            tier_stats = manager.tenant_stats().get(tenant_id, {})
            hits = misses = 0
            for tier_row in tier_stats.values():
                hits += tier_row.get("hits", 0) + tier_row.get(
                    "coalesced", 0
                )
                misses += tier_row.get("misses", 0)
            rows.append(
                {
                    "tenant": tenant_id,
                    "name": tenant.name,
                    "model": tenant.model_preference or "-",
                    "private_apps": sorted(
                        self._tenant_apps.get(tenant_id, {})
                    ),
                    "sessions": sessions.get(tenant_id, {}).get(
                        "sessions", 0
                    ),
                    "quota": quotas.get(tenant_id, {}),
                    "cache_hit_rate": round(
                        hits / (hits + misses), 4
                    )
                    if hits + misses
                    else 0.0,
                }
            )
        return rows

    def render_table(self) -> str:
        """Plain-text tenant table for the CLI and REPL."""
        rows = self.describe()
        if not rows:
            return "no tenants registered"
        header = (
            f"{'tenant':<12} {'model':<12} {'sessions':>8} "
            f"{'inflight':>8} {'tokens':>8} {'throttled':>9} {'hit-rate':>8}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            quota = row["quota"]
            lines.append(
                f"{row['tenant']:<12} {row['model']:<12} "
                f"{row['sessions']:>8} "
                f"{quota.get('inflight', 0):>8} "
                f"{quota.get('tokens', '-'):>8} "
                f"{quota.get('throttled', 0):>9} "
                f"{row['cache_hit_rate']:>8.1%}"
            )
        return "\n".join(lines)
