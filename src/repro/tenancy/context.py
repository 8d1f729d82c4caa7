"""The ambient tenant context.

One context variable carries "which tenant is this work for" through
a request: the fabric (or the server's ``/v1/chat`` handler) enters a
:func:`tenant_scope` around the turn, and everything downstream — the
cache manager picking a partition, the serving scheduler's admission
hook, the root span's ``tenant`` attribute — reads
:func:`current_tenant` without any parameter threading.

``contextvars`` propagates correctly across threads spawned with
``contextvars.copy_context()`` (the pattern the client and RAG
federation already use) and across asyncio tasks, so spans and cache
partitions stay attributed to the right tenant even on pool threads.

This module is import-light on purpose: layers as low as
:mod:`repro.cache.manager` import it, so it must not pull in the rest
of the tenancy package (or anything above it).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator, Optional

_current_tenant: ContextVar[Optional[str]] = ContextVar(
    "repro_tenant", default=None
)


def current_tenant() -> Optional[str]:
    """The tenant the current request is running for (None outside
    any tenant scope)."""
    return _current_tenant.get()


@contextlib.contextmanager
def tenant_scope(tenant_id: str) -> Iterator[None]:
    """Run the enclosed block attributed to ``tenant_id``."""
    token = _current_tenant.set(tenant_id)
    try:
        yield
    finally:
        _current_tenant.reset(token)
