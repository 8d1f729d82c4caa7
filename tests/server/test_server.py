"""Tests for the server layer: router, middleware, service."""

import pytest

from repro.apps.base import Application, AppResponse
from repro.core import DBGPT
from repro.obs import MetricsRegistry, set_registry
from repro.server import (
    AuthMiddleware,
    DbGptServer,
    Middleware,
    PrivacyMiddleware,
    Request,
    Response,
    Router,
    RouterError,
    TracingMiddleware,
)
from repro.server.request import ok


class _EchoApp(Application):
    name = "echo"

    def chat(self, text: str) -> AppResponse:
        return AppResponse(text=f"echo: {text}")


class _FailingApp(Application):
    name = "fails"

    def chat(self, text: str) -> AppResponse:
        return AppResponse(text="nope", ok=False)


class TestRouter:
    def test_exact_route(self):
        router = Router()
        router.add_route("GET", "/ping", lambda req: ok({"pong": True}))
        response = router.dispatch(Request("GET", "/ping"))
        assert response.status == 200
        assert response.body == {"pong": True}

    def test_path_params_captured(self):
        router = Router()
        router.add_route(
            "GET", "/items/{item_id}",
            lambda req, item_id: ok({"id": item_id}),
        )
        response = router.dispatch(Request("GET", "/items/42"))
        assert response.body == {"id": "42"}

    def test_404_unknown_path(self):
        router = Router()
        assert router.dispatch(Request("GET", "/nope")).status == 404

    def test_405_wrong_method(self):
        router = Router()
        router.add_route("POST", "/thing", lambda req: ok({}))
        assert router.dispatch(Request("GET", "/thing")).status == 405

    def test_duplicate_route_rejected(self):
        router = Router()
        router.add_route("GET", "/a", lambda req: ok({}))
        with pytest.raises(RouterError):
            router.add_route("GET", "/a", lambda req: ok({}))

    def test_routes_listing(self):
        router = Router()
        router.add_route("GET", "/a", lambda req: ok({}))
        assert router.routes() == [("GET", "/a")]


class _Recorder(Middleware):
    """Records (method, path, status) for every request it passes on."""

    def __init__(self):
        self.entries = []

    def __call__(self, request, next_handler):
        response = next_handler(request)
        self.entries.append((request.method, request.path, response.status))
        return response


class TestMiddleware:
    def test_logging_records_entries(self):
        recorder = _Recorder()
        router = Router([recorder])
        router.add_route("GET", "/x", lambda req: ok({}))
        router.dispatch(Request("GET", "/x"))
        router.dispatch(Request("GET", "/missing"))
        assert recorder.entries == [
            ("GET", "/x", 200),
            ("GET", "/missing", 404),
        ]

    def test_auth_blocks_without_token(self):
        router = Router([AuthMiddleware("secret")])
        router.add_route("GET", "/x", lambda req: ok({}))
        assert router.dispatch(Request("GET", "/x")).status == 401

    def test_auth_passes_with_bearer(self):
        router = Router([AuthMiddleware("secret")])
        router.add_route("GET", "/x", lambda req: ok({}))
        request = Request(
            "GET", "/x", headers={"Authorization": "Bearer secret"}
        )
        assert router.dispatch(request).status == 200

    def test_auth_empty_token_rejected(self):
        with pytest.raises(ValueError):
            AuthMiddleware("")

    def test_privacy_masks_inbound_and_restores_outbound(self):
        seen = {}

        def handler(request):
            seen["message"] = request.body["message"]
            return ok({"text": request.body["message"]})

        router = Router([PrivacyMiddleware()])
        router.add_route("POST", "/chat", handler)
        response = router.dispatch(
            Request("POST", "/chat", {"message": "mail a@b.com please"})
        )
        assert "a@b.com" not in seen["message"]
        assert "<EMAIL_1>" in seen["message"]
        # Restored for the user on the way out.
        assert "a@b.com" in response.body["text"]

    def test_middleware_order_outside_in(self):
        calls = []

        class Recorder(Middleware):
            def __init__(self, tag):
                self.tag = tag

            def __call__(self, request, next_handler):
                calls.append(self.tag)
                return next_handler(request)

        router = Router([Recorder("outer"), Recorder("inner")])
        router.add_route("GET", "/x", lambda req: ok({}))
        router.dispatch(Request("GET", "/x"))
        assert calls == ["outer", "inner"]


class TestDbGptServer:
    @pytest.fixture
    def server(self):
        dbgpt = DBGPT.boot()
        dbgpt._apps.update(echo=_EchoApp(), fails=_FailingApp())
        dbgpt.register_tenant("acme")
        yield DbGptServer(dbgpt.fabric)
        dbgpt.shutdown()

    @staticmethod
    def chat(server, body):
        return server.handle(
            Request("POST", "/v1/chat", {"tenant_id": "acme", **body})
        )

    def test_health(self, server):
        response = server.handle(Request("GET", "/api/health"))
        assert response.body == {"status": "up"}

    def test_openapi_lists_every_mounted_route(self, server):
        response = server.handle(Request("GET", "/api/openapi"))
        assert response.body["paths"] == {
            "/api/health": ["GET"],
            "/api/openapi": ["GET"],
            "/v1/chat": ["POST"],
            "/v1/sessions": ["POST"],
            "/v1/sessions/{session_id}": ["DELETE", "GET"],
            "/v1/tenants": ["GET"],
        }

    def test_chat_round_trip(self, server):
        response = self.chat(server, {"app": "echo", "message": "hello"})
        assert response.status == 200
        assert response.body["text"] == "echo: hello"

    def test_chat_unknown_app(self, server):
        response = self.chat(server, {"app": "ghost", "message": "x"})
        assert response.status == 404
        assert response.body["code"] == "unknown_app"

    def test_chat_missing_message(self, server):
        response = self.chat(server, {"app": "echo"})
        assert response.status == 400

    def test_failing_app_maps_to_422(self, server):
        response = self.chat(server, {"app": "fails", "message": "x"})
        assert response.status == 422

    def test_response_json(self, server):
        response = server.handle(Request("GET", "/api/health"))
        assert '"status": "up"' in response.json()

    def test_latency_label_sets_stay_bounded(self, server):
        """``server_latency_ms`` is labelled by route pattern, so
        distinct session ids and probed paths add no series."""
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            traced = DbGptServer(server.fabric, [TracingMiddleware()])
            body = {"tenant_id": "acme"}
            for i in range(50):
                traced.handle(
                    Request("GET", f"/v1/sessions/session-{i}", body)
                )
                traced.handle(Request("GET", f"/probe-{i}"))
            traced.handle(Request("DELETE", "/v1/chat"))
            series = registry.snapshot()["server_latency_ms"]["values"]
        finally:
            set_registry(previous)
        assert sorted(series) == [
            "method=DELETE,path=unrouted,status=405",
            "method=GET,path=/v1/sessions/{session_id},status=404",
            "method=GET,path=unrouted,status=404",
        ]
