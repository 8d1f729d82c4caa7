"""HTTP-shaped request/response objects."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Request:
    method: str
    path: str
    body: dict[str, Any] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    #: Identity attached by the auth middleware (a tenant id under the
    #: tenancy fabric); None until authenticated.
    principal: Optional[str] = None
    #: The :class:`~repro.server.router.Route` taking this method and
    #: path, matched before any middleware runs; None when none does.
    route: Optional[Any] = None

    def header(self, name: str, default: str = "") -> str:
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default


@dataclass
class Response:
    status: int
    body: dict[str, Any] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> str:
        return json.dumps(self.body, ensure_ascii=False)


def ok(body: dict[str, Any]) -> Response:
    return Response(200, body)


def error(
    status: int,
    message: str,
    code: Optional[str] = None,
    **extra: Any,
) -> Response:
    """A structured error body: human text plus a stable ``code``.

    Clients branch on ``code`` (machine-stable), never on the message
    text; ``extra`` carries structured hints such as ``retry_after``.
    """
    body: dict[str, Any] = {"error": message}
    if code is not None:
        body["code"] = code
    body.update(extra)
    return Response(status, body)
