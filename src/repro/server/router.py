"""Route table with path parameters and a middleware chain."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.metrics import Counter, MetricHandle
from repro.server.middleware import Handler, Middleware
from repro.server.request import Request, Response, error

_PARAM = re.compile(r"\{(\w+)\}")

_UNROUTED = MetricHandle(
    Counter, "server_unrouted_total", "requests matching no route", ("reason",)
)


class RouterError(Exception):
    """Invalid router configuration."""


@dataclass
class Route:
    method: str
    pattern: str
    handler: Callable[..., Response]
    regex: re.Pattern[str]


class Router:
    """Dispatch requests to handlers; ``{name}`` segments capture params.

    Handlers receive ``(request, **path_params)``.
    """

    def __init__(self, middlewares: Optional[list[Middleware]] = None) -> None:
        self._routes: list[Route] = []
        # The chain is composed once, here, not per request.
        handler: Handler = self._resolve_handler
        for middleware in reversed(list(middlewares or [])):
            handler = _wrap(middleware, handler)
        self._chain = handler

    def add_route(
        self,
        method: str,
        pattern: str,
        handler: Callable[..., Response],
    ) -> None:
        regex_text = "^" + _PARAM.sub(r"(?P<\1>[^/]+)", re.escape(pattern).replace(r"\{", "{").replace(r"\}", "}")) + "$"
        try:
            regex = re.compile(regex_text)
        except re.error as exc:
            raise RouterError(f"bad route pattern {pattern!r}: {exc}") from exc
        for route in self._routes:
            if route.method == method.upper() and route.pattern == pattern:
                raise RouterError(
                    f"route {method} {pattern} already registered"
                )
        self._routes.append(
            Route(method.upper(), pattern, handler, regex)
        )

    def routes(self) -> list[tuple[str, str]]:
        return [(route.method, route.pattern) for route in self._routes]

    def dispatch(self, request: Request) -> Response:
        request.route = self._match(request)
        return self._chain(request)

    def _match(self, request: Request) -> Optional[Route]:
        method = request.method.upper()
        for route in self._routes:
            if route.method == method and route.regex.match(request.path):
                return route
        return None

    def _resolve_handler(self, request: Request) -> Response:
        route = request.route
        if route is not None:
            params = route.regex.match(request.path).groupdict()
            return route.handler(request, **params)
        if any(route.regex.match(request.path) for route in self._routes):
            _UNROUTED.labels("method_not_allowed")()
            return error(
                405,
                f"method {request.method} not allowed",
                code="method_not_allowed",
            )
        _UNROUTED.labels("not_found")()
        return error(
            404, f"no route for {request.path}", code="route_not_found"
        )


def _wrap(middleware: Middleware, inner: Handler) -> Handler:
    def wrapped(request: Request) -> Response:
        return middleware(request, inner)

    return wrapped
