"""The (optional) server layer.

Manages external inputs — HTTP-shaped requests — and routes them to
applications in the module layer, with a middleware chain (tracing,
auth, privacy scrubbing). Applications remain directly callable when no
server is needed, matching the paper's "optional component" design.
"""

from repro.server.middleware import (
    AuthMiddleware,
    Middleware,
    PrivacyMiddleware,
    TracingMiddleware,
)
from repro.server.request import Request, Response
from repro.server.router import Route, Router, RouterError
from repro.server.service import DbGptServer

__all__ = [
    "AuthMiddleware",
    "DbGptServer",
    "Middleware",
    "PrivacyMiddleware",
    "Request",
    "Response",
    "Route",
    "Router",
    "RouterError",
    "TracingMiddleware",
]
