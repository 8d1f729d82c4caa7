"""Shared application interface.

Every concrete application's ``chat`` is automatically wrapped with a
root ``app.chat`` span (one per user turn) plus a latency metric by
outcome, so nothing in the subclasses needs to know observability
exists — see ``docs/observability.md`` for the span and metric names.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.obs.metrics import Histogram, MetricHandle
from repro.obs.tracer import get_tracer
from repro.tenancy.context import current_tenant

#: ``ok``: the answer's (``true``/``false``), or ``error`` if it raised.
_LATENCY = MetricHandle(
    Histogram, "app_latency_ms", "end-to-end chat turn latency",
    ("app", "ok"),
)


@dataclass
class AppResponse:
    """What every application returns for one user turn.

    ``text`` is the user-facing answer; ``payload`` carries structured
    results (a ResultSet, ChartSpec, Dashboard, ...); ``ok`` is False
    when the turn failed but the failure was handled conversationally.
    """

    text: str
    ok: bool = True
    payload: Any = None
    metadata: dict[str, Any] = field(default_factory=dict)


def _traced_chat(chat: Callable[..., "AppResponse"]) -> Callable:
    """Wrap a ``chat`` implementation in the per-turn root span."""

    @functools.wraps(chat)
    def wrapped(self: "Application", text: str) -> "AppResponse":
        with get_tracer().span(
            "app.chat",
            functools.partial(_LATENCY.labels, self.name),
            app=self.name,
            chars=len(text),
        ) as span:
            # Root spans carry the tenant only when a tenant scope is
            # active, so untenanted traces are unchanged.
            tenant = current_tenant()
            if tenant is not None:
                span.set_attribute("tenant", tenant)
            response = chat(self, text)
            span.set_attribute("ok", response.ok)
            span.set_outcome(str(response.ok).lower())
        return response

    wrapped.__obs_wrapped__ = True
    return wrapped


class Application(abc.ABC):
    """A named data interaction functionality.

    Subclasses implement ``chat``; at class-creation time the
    implementation is wrapped so every turn opens one root span and
    records its latency by outcome. The wrap only applies to ``chat``
    defined in that class body, so inherited (already wrapped)
    implementations are not double-counted.
    """

    name = "app"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        chat = cls.__dict__.get("chat")
        if chat is not None and not getattr(
            chat, "__obs_wrapped__", False
        ):
            cls.chat = _traced_chat(chat)

    @abc.abstractmethod
    def chat(self, text: str) -> AppResponse:
        """Handle one user utterance."""

    def reset(self) -> None:
        """Clear any per-conversation state (default: stateless)."""
