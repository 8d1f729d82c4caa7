"""Middleware chain for the server layer."""

from __future__ import annotations

import abc
from functools import partial
from typing import Callable, Optional

from repro.obs.metrics import Histogram, MetricHandle
from repro.obs.tracer import get_tracer
from repro.rag.privacy import PrivacyScrubber
from repro.server.request import Request, Response, error

Handler = Callable[[Request], Response]

#: ``path``: the matched route's pattern (``/v1/sessions/{session_id}``),
#: or :data:`UNROUTED`; ``status``: the HTTP status, or ``error`` when
#: the handler raised.
_LATENCY = MetricHandle(
    Histogram, "server_latency_ms",
    "request latency through the middleware chain",
    ("method", "path", "status"),
)

#: The ``path`` label of every request no route takes (a 404 or 405;
#: ``server_unrouted_total`` counts them by reason), so probed paths
#: do not each add a series.
UNROUTED = "unrouted"


class Middleware(abc.ABC):
    """Wraps request handling; middlewares compose outside-in."""

    @abc.abstractmethod
    def __call__(self, request: Request, next_handler: Handler) -> Response:
        """Process ``request``, usually delegating to ``next_handler``."""


class TracingMiddleware(Middleware):
    """Open one ``server.request`` span per dispatched request.

    Installed outermost by default (see ``DBGPT.server``) so every
    other middleware and the application handler nest inside it; also
    records each request's latency by route pattern and status. The
    span keeps the raw path.
    """

    def __call__(self, request: Request, next_handler: Handler) -> Response:
        route = request.route
        with get_tracer().span(
            "server.request",
            partial(
                _LATENCY.labels,
                request.method,
                UNROUTED if route is None else route.pattern,
            ),
            method=request.method,
            path=request.path,
        ) as span:
            response = next_handler(request)
            span.set_attribute("status_code", response.status)
            span.set_outcome(str(response.status))
        return response


class AuthMiddleware(Middleware):
    """Bearer-token check (private deployments gate access).

    Single-token mode (``AuthMiddleware("secret")``) authenticates
    without identifying anyone. ``principals`` mode maps each token to
    a principal id — under the tenancy fabric, the tenant id — which
    is attached to ``request.principal`` for downstream ownership
    checks. Rejections carry the stable code ``"unauthorized"``.
    """

    def __init__(
        self,
        token: str = "",
        principals: Optional[dict[str, str]] = None,
    ) -> None:
        if not token and not principals:
            raise ValueError("auth token must be non-empty")
        self._token = token
        self._principals = dict(principals or {})

    def __call__(self, request: Request, next_handler: Handler) -> Response:
        supplied = request.header("authorization")
        if not supplied.startswith("Bearer "):
            return error(
                401, "missing or invalid bearer token", code="unauthorized"
            )
        token = supplied[len("Bearer ") :]
        if self._token and token == self._token:
            return next_handler(request)
        principal = self._principals.get(token)
        if principal is None:
            return error(
                401, "missing or invalid bearer token", code="unauthorized"
            )
        request.principal = principal
        return next_handler(request)


class PrivacyMiddleware(Middleware):
    """Scrub PII from inbound message text before apps (and models)
    ever see it, and restore it in the outbound answer."""

    def __init__(self, scrubber: Optional[PrivacyScrubber] = None) -> None:
        self._scrubber = scrubber or PrivacyScrubber()

    def __call__(self, request: Request, next_handler: Handler) -> Response:
        message = request.body.get("message")
        if not isinstance(message, str):
            return next_handler(request)
        result = self._scrubber.scrub(message)
        request.body["message"] = result.text
        response = next_handler(request)
        if result.found_pii and isinstance(response.body.get("text"), str):
            response.body["text"] = self._scrubber.restore(
                response.body["text"], result
            )
        return response
