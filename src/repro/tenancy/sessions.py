"""The server-side session store.

Sessions are created and resumed by ``session_id`` through the API;
their conversation history lives here, in
:class:`~repro.core.session.SessionRecord` objects, not in client
memory. The store bounds each tenant to ``max_sessions_per_tenant``
records (least-recently-active eviction beyond that) and expires idle
sessions after ``session_ttl_seconds`` against the injectable clock.

Two invariants the tests pin:

- a session with an **in-flight turn is never evicted or expired** —
  the turn pins the record (the per-tenant bound may be transiently
  exceeded while every candidate is pinned);
- concurrent turns into the same session **serialize** on the record's
  lock, so history order matches execution order.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.core.session import SessionRecord, new_session_id
from repro.obs.metrics import Counter, Gauge, MetricHandle
from repro.tenancy.config import TenancyConfig
from repro.tenancy.registry import TenancyError

_SESSIONS = MetricHandle(
    Gauge, "tenant_sessions", "stored sessions per tenant", ("tenant",)
)
_EVICTIONS = MetricHandle(
    Counter, "tenant_session_evictions_total",
    "sessions dropped by LRU bound or TTL expiry", ("tenant", "reason"),
)


class UnknownSession(TenancyError):
    """The session id is not in the store (never created, evicted,
    or expired)."""

    def __init__(self, session_id: str) -> None:
        super().__init__(f"unknown session {session_id!r}")
        self.session_id = session_id


class SessionStore:
    """Bounded, TTL-expiring home for every tenant's sessions."""

    def __init__(
        self,
        config: Optional[TenancyConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or TenancyConfig()
        self._clock = clock
        self._rng = rng
        self._lock = threading.Lock()
        self._records: dict[str, SessionRecord] = {}
        #: Per-tenant recency order: oldest-active first.
        self._order: dict[str, OrderedDict[str, None]] = {}
        self._evictions: dict[str, int] = {}
        self._expirations: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def create(
        self,
        tenant_id: str,
        app_name: str,
        session_id: Optional[str] = None,
    ) -> SessionRecord:
        """Create (or return the existing) session for ``session_id``.

        Passing an id that already exists for the same tenant resumes
        that session; a fresh id is drawn from the injectable rng when
        none is given. Creating beyond the per-tenant bound evicts the
        least-recently-active unpinned session.
        """
        now = self._clock()
        with self._lock:
            self._expire_tenant_locked(tenant_id, now)
            if session_id is not None:
                existing = self._records.get(session_id)
                if existing is not None:
                    if existing.tenant_id != tenant_id:
                        raise ValueError(
                            f"session {session_id!r} belongs to tenant "
                            f"{existing.tenant_id!r}"
                        )
                    self._touch_locked(existing, now)
                    return existing
            record = SessionRecord(
                session_id or new_session_id(self._rng),
                app_name=app_name,
                tenant_id=tenant_id,
                created_at=now,
            )
            self._records[record.session_id] = record
            order = self._order.setdefault(tenant_id, OrderedDict())
            order[record.session_id] = None
            self._evict_tenant_locked(tenant_id)
            _SESSIONS.labels(tenant_id)(len(order))
        return record

    def get(self, session_id: str, pin: bool = False) -> SessionRecord:
        """The session, freshness-checked and, with ``pin``, pinned in
        the same lock hold; raises :class:`UnknownSession` when missing
        or expired."""
        now = self._clock()
        with self._lock:
            record = self._records.get(session_id)
            if record is not None and self._expired_locked(record, now):
                self._drop_locked(record, "ttl")
                record = None
            if record is None:
                raise UnknownSession(session_id)
            self._touch_locked(record, now)
            if pin:
                record.inflight += 1
            return record

    def drop(self, session_id: str) -> SessionRecord:
        """Explicitly remove a session; refuses while a turn is in
        flight (the caller should retry after the turn completes)."""
        with self._lock:
            record = self._records.get(session_id)
            if record is None:
                raise UnknownSession(session_id)
            if record.inflight > 0:
                raise TenancyError(
                    f"session {session_id!r} has an in-flight turn"
                )
            self._drop_locked(record, "explicit")
            return record

    def pin(self, record: SessionRecord) -> None:
        """Pin ``record`` for one turn, until :meth:`unpin`.

        While pinned the record can neither be LRU-evicted nor
        TTL-expired, so a session is never dropped out from under its
        own in-flight request.
        """
        with self._lock:
            record.inflight += 1

    def unpin(self, record: SessionRecord) -> None:
        """End a turn's pin; the turn counts as the session's latest
        activity."""
        now = self._clock()
        with self._lock:
            record.inflight -= 1
            self._touch_locked(record, now)

    # -- internals (store lock held) ----------------------------------------

    def _touch_locked(self, record: SessionRecord, now: float) -> None:
        record.last_active = now
        order = self._order.get(record.tenant_id)
        if order is not None and record.session_id in order:
            order.move_to_end(record.session_id)

    def _expired_locked(self, record: SessionRecord, now: float) -> bool:
        ttl = self.config.session_ttl_seconds
        return (
            ttl is not None
            and record.inflight == 0
            and now - record.last_active >= ttl
        )

    def _expire_tenant_locked(self, tenant_id: str, now: float) -> None:
        order = self._order.get(tenant_id)
        if not order or self.config.session_ttl_seconds is None:
            return
        for session_id in list(order):
            record = self._records[session_id]
            if self._expired_locked(record, now):
                self._drop_locked(record, "ttl")

    def _evict_tenant_locked(self, tenant_id: str) -> None:
        order = self._order.get(tenant_id)
        if order is None:
            return
        limit = self.config.max_sessions_per_tenant
        if len(order) <= limit:
            return
        # Oldest-active first; skip pinned records, and never the
        # newest entry (the session whose creation triggered this). If
        # every candidate is pinned the bound is transiently exceeded
        # rather than dropping a session mid-turn.
        for session_id in list(order)[:-1]:
            if len(order) <= limit:
                break
            record = self._records[session_id]
            if record.inflight == 0:
                self._drop_locked(record, "lru")

    def _drop_locked(self, record: SessionRecord, reason: str) -> None:
        # Drop, TTL expiry and LRU eviction all publish the count here.
        self._records.pop(record.session_id, None)
        order = self._order.get(record.tenant_id)
        if order is not None:
            order.pop(record.session_id, None)
            _SESSIONS.labels(record.tenant_id)(len(order))
        if reason == "ttl":
            self._expirations[record.tenant_id] = (
                self._expirations.get(record.tenant_id, 0) + 1
            )
        if reason != "explicit":
            _EVICTIONS.labels(record.tenant_id, reason)()
        if reason == "lru":
            self._evictions[record.tenant_id] = (
                self._evictions.get(record.tenant_id, 0) + 1
            )

    # -- introspection ------------------------------------------------------

    def sessions_for(self, tenant_id: str) -> list[SessionRecord]:
        """The tenant's live sessions, least-recently-active first."""
        with self._lock:
            order = self._order.get(tenant_id, OrderedDict())
            return [self._records[sid] for sid in order]

    def stats(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            tenants = (
                set(self._order) | set(self._evictions)
                | set(self._expirations)
            )
            return {
                tenant_id: {
                    "sessions": len(self._order.get(tenant_id, ())),
                    "evictions": self._evictions.get(tenant_id, 0),
                    "expirations": self._expirations.get(tenant_id, 0),
                }
                for tenant_id in sorted(tenants)
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._records
