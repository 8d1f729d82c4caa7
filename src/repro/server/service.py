"""DbGptServer: mounts applications behind the HTTP-shaped API."""

from __future__ import annotations

from typing import Any, Optional

from repro.server.middleware import Middleware
from repro.server.request import Request, Response, error, ok
from repro.server.router import Router


class DbGptServer:
    """Serve the applications over the tenant ``fabric``.

    ``POST /v1/chat`` (takes ``tenant_id``/``session_id``/``app``) is
    the only route that runs an application, so every served turn is
    admitted, pinned to a session and scoped to its tenant. Beside it:
    ``POST /v1/sessions`` (create/resume by id), ``GET`` and ``DELETE``
    on ``/v1/sessions/{session_id}``, ``GET /v1/tenants``, and
    ``GET /api/health`` and ``GET /api/openapi``.
    """

    def __init__(
        self,
        fabric: Any,
        middlewares: Optional[list[Middleware]] = None,
    ) -> None:
        self.router = Router(middlewares)
        self.fabric = fabric
        self.router.add_route("GET", "/api/health", self._health)
        self.router.add_route("GET", "/api/openapi", self._openapi)
        self._tenant_route("POST", "/v1/sessions", self._create_session)
        self._tenant_route(
            "GET", "/v1/sessions/{session_id}", self._get_session
        )
        self._tenant_route(
            "DELETE", "/v1/sessions/{session_id}", self._drop_session
        )
        self._tenant_route("POST", "/v1/chat", self._tenant_chat)
        self.router.add_route("GET", "/v1/tenants", self._list_tenants)

    def handle(self, request: Request) -> Response:
        return self.router.dispatch(request)

    # -- handlers -----------------------------------------------------------

    def _health(self, request: Request) -> Response:
        return ok({"status": "up"})

    def _openapi(self, request: Request) -> Response:
        """A minimal OpenAPI-style description of the mounted routes."""
        paths: dict[str, Any] = {}
        for method, pattern in self.router.routes():
            paths.setdefault(pattern, []).append(method)
        return ok(
            {
                "openapi": "3.0-ish",
                "info": {"title": "DB-GPT repro server", "version": "0.1.0"},
                "paths": {
                    pattern: sorted(methods)
                    for pattern, methods in sorted(paths.items())
                },
            }
        )

    # -- tenant surface ----------------------------------------------------

    def _resolve_tenant(self, request: Request) -> Any:
        """The effective tenant id, or an error Response.

        An authenticated principal *is* its tenant: a body naming a
        different tenant is a cross-tenant access attempt (403), and a
        request naming none inherits the principal's.
        """
        tenant_id = request.body.get("tenant_id")
        if tenant_id is not None and not isinstance(tenant_id, str):
            return error(
                400, "'tenant_id' must be a string", code="invalid_request"
            )
        if request.principal is not None:
            if tenant_id is not None and tenant_id != request.principal:
                return error(
                    403,
                    f"principal {request.principal!r} may not act as "
                    f"tenant {tenant_id!r}",
                    code="tenant_forbidden",
                )
            return request.principal
        if tenant_id is None:
            return error(
                400, "body requires a 'tenant_id'", code="invalid_request"
            )
        return tenant_id

    def _tenant_route(self, method: str, pattern: str, handler: Any) -> None:
        """Mount a tenant-surface handler whose tenancy failures become
        structured error responses."""

        def mapped(request: Request, **params: str) -> Response:
            try:
                return handler(request, **params)
            except Exception as exc:  # noqa: BLE001 - mapped to codes
                response = self._map_tenancy_error(exc)
                if response is None:
                    raise
                return response

        self.router.add_route(method, pattern, mapped)

    def _map_tenancy_error(self, exc: Exception) -> Optional[Response]:
        """Structured responses for tenancy control-plane failures."""
        from repro.tenancy.fabric import TenantForbidden
        from repro.tenancy.quotas import TenantThrottled
        from repro.tenancy.registry import UnknownTenant
        from repro.tenancy.sessions import UnknownSession

        if isinstance(exc, TenantThrottled):
            return error(
                429,
                str(exc),
                code=exc.code,
                retry_after=exc.retry_after,
            )
        if isinstance(exc, TenantForbidden):
            return error(403, str(exc), code="tenant_forbidden")
        if isinstance(exc, UnknownTenant):
            return error(404, str(exc), code="unknown_tenant")
        if isinstance(exc, UnknownSession):
            return error(404, str(exc), code="unknown_session")
        if isinstance(exc, KeyError):
            return error(404, str(exc.args[0]), code="unknown_app")
        return None

    def _create_session(self, request: Request) -> Response:
        tenant_id = self._resolve_tenant(request)
        if isinstance(tenant_id, Response):
            return tenant_id
        app_name = request.body.get("app")
        if not isinstance(app_name, str) or not app_name.strip():
            return error(
                400,
                "body requires a non-empty 'app'",
                code="invalid_request",
            )
        record = self.fabric.open_session(
            tenant_id, app_name, session_id=request.body.get("session_id")
        )
        return Response(
            201,
            {
                "session_id": record.session_id,
                "tenant_id": record.tenant_id,
                "app": record.app_name,
                "turns": len(record.turns),
            },
        )

    def _session_record(
        self, request: Request, session_id: str
    ) -> Any:
        tenant_id = self._resolve_tenant(request)
        if isinstance(tenant_id, Response):
            return tenant_id
        return self.fabric.session(tenant_id, session_id)

    def _get_session(self, request: Request, session_id: str) -> Response:
        record = self._session_record(request, session_id)
        if isinstance(record, Response):
            return record
        with record.lock:
            turns = [
                {"user": turn.user, "assistant": turn.assistant, "ok": turn.ok}
                for turn in record.turns
            ]
        return ok(
            {
                "session_id": record.session_id,
                "tenant_id": record.tenant_id,
                "app": record.app_name,
                "turns": turns,
            }
        )

    def _drop_session(self, request: Request, session_id: str) -> Response:
        from repro.tenancy.registry import TenancyError
        from repro.tenancy.sessions import UnknownSession

        record = self._session_record(request, session_id)
        if isinstance(record, Response):
            return record
        try:
            self.fabric.store.drop(session_id)
        except UnknownSession:
            raise
        except TenancyError as exc:
            # An in-flight turn pins the session; deletion must wait.
            return error(409, str(exc), code="session_busy")
        return ok({"session_id": session_id, "deleted": True})

    def _tenant_chat(self, request: Request) -> Response:
        tenant_id = self._resolve_tenant(request)
        if isinstance(tenant_id, Response):
            return tenant_id
        message = request.body.get("message")
        if not isinstance(message, str) or not message.strip():
            return error(
                400,
                "body requires a non-empty 'message'",
                code="invalid_request",
            )
        record, response = self.fabric.chat(
            tenant_id,
            message,
            session_id=request.body.get("session_id"),
            app_name=request.body.get("app"),
        )
        payload: dict[str, Any] = {
            "text": response.text,
            "ok": response.ok,
            "metadata": response.metadata,
            "session_id": record.session_id,
            "tenant_id": record.tenant_id,
        }
        return Response(200 if response.ok else 422, payload)

    def _list_tenants(self, request: Request) -> Response:
        return ok({"tenants": self.fabric.describe()})

