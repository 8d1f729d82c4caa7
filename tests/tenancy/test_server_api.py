"""Tests for the multi-tenant server surface and structured errors."""

import re

import pytest

from repro.core import DBGPT
from repro.core.config import DbGptConfig
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.server.request import Request
from repro.tenancy import QuotaConfig, TenancyConfig


def boot_server(principals=None, **tenancy_kwargs):
    config = DbGptConfig(
        tenancy=TenancyConfig(**tenancy_kwargs),
        auth_principals=principals,
    )
    dbgpt = DBGPT.boot(config)
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=20)))
    return dbgpt


@pytest.fixture
def stack():
    dbgpt = boot_server()
    dbgpt.register_tenant("acme")
    dbgpt.register_tenant("globex")
    yield dbgpt, dbgpt.server()
    dbgpt.shutdown()


def post(server, path, body, headers=None):
    return server.handle(Request("POST", path, body, headers or {}))


class TestSessionsEndpoint:
    def test_create_and_resume(self, stack):
        _, server = stack
        created = post(
            server,
            "/v1/sessions",
            {"tenant_id": "acme", "app": "chat2db"},
        )
        assert created.status == 201
        session_id = created.body["session_id"]
        resumed = post(
            server,
            "/v1/sessions",
            {
                "tenant_id": "acme",
                "app": "chat2db",
                "session_id": session_id,
            },
        )
        assert resumed.status == 201
        assert resumed.body["session_id"] == session_id

    def test_get_transcript(self, stack):
        _, server = stack
        session_id = post(
            server, "/v1/sessions", {"tenant_id": "acme", "app": "chat2db"}
        ).body["session_id"]
        post(
            server,
            "/v1/chat",
            {
                "tenant_id": "acme",
                "session_id": session_id,
                "message": "How many orders are there?",
            },
        )
        got = server.handle(
            Request(
                "GET", f"/v1/sessions/{session_id}", {"tenant_id": "acme"}
            )
        )
        assert got.status == 200
        assert len(got.body["turns"]) == 1

    def test_cross_tenant_session_access_forbidden(self, stack):
        _, server = stack
        session_id = post(
            server, "/v1/sessions", {"tenant_id": "acme", "app": "chat2db"}
        ).body["session_id"]
        stolen = server.handle(
            Request(
                "GET", f"/v1/sessions/{session_id}", {"tenant_id": "globex"}
            )
        )
        assert stolen.status == 403
        assert stolen.body["code"] == "tenant_forbidden"

    def test_delete_session(self, stack):
        _, server = stack
        session_id = post(
            server, "/v1/sessions", {"tenant_id": "acme", "app": "chat2db"}
        ).body["session_id"]
        deleted = server.handle(
            Request(
                "DELETE",
                f"/v1/sessions/{session_id}",
                {"tenant_id": "acme"},
            )
        )
        assert deleted.status == 200
        missing = server.handle(
            Request(
                "GET", f"/v1/sessions/{session_id}", {"tenant_id": "acme"}
            )
        )
        assert missing.status == 404
        assert missing.body["code"] == "unknown_session"

    def test_validation_errors_structured(self, stack):
        _, server = stack
        no_tenant = post(server, "/v1/sessions", {"app": "chat2db"})
        assert no_tenant.status == 400
        assert no_tenant.body["code"] == "invalid_request"
        no_app = post(server, "/v1/sessions", {"tenant_id": "acme"})
        assert no_app.status == 400
        unknown = post(
            server, "/v1/sessions", {"tenant_id": "ghost", "app": "chat2db"}
        )
        assert unknown.status == 404
        assert unknown.body["code"] == "unknown_tenant"


class TestTenantChatEndpoint:
    def test_chat_creates_session(self, stack):
        _, server = stack
        response = post(
            server,
            "/v1/chat",
            {
                "tenant_id": "acme",
                "message": "How many orders are there?",
                "app": "chat2db",
            },
        )
        assert response.status == 200
        assert response.body["tenant_id"] == "acme"
        assert response.body["session_id"].startswith("session-")

    def test_throttled_maps_to_429_with_code(self):
        dbgpt = boot_server()
        try:
            dbgpt.register_tenant(
                "noisy",
                quota=QuotaConfig(refill_per_second=0.001, burst=1.0),
            )
            server = dbgpt.server()
            body = {
                "tenant_id": "noisy",
                "message": "How many orders are there?",
                "app": "chat2db",
            }
            assert post(server, "/v1/chat", body).status == 200
            throttled = post(server, "/v1/chat", body)
            assert throttled.status == 429
            assert throttled.body["code"] == "tenant_throttled"
            assert throttled.body["retry_after"] > 0
        finally:
            dbgpt.shutdown()

    def test_unknown_app_structured(self, stack):
        _, server = stack
        response = post(
            server,
            "/v1/chat",
            {"tenant_id": "acme", "message": "hi", "app": "nope"},
        )
        assert response.status == 404
        assert response.body["code"] == "unknown_app"


class TestPrincipalAuth:
    def test_token_maps_to_tenant(self):
        dbgpt = boot_server(
            principals={"tok-acme": "acme", "tok-globex": "globex"}
        )
        try:
            dbgpt.register_tenant("acme")
            dbgpt.register_tenant("globex")
            server = dbgpt.server()
            headers = {"Authorization": "Bearer tok-acme"}
            response = post(
                server,
                "/v1/chat",
                {"message": "How many orders are there?", "app": "chat2db"},
                headers,
            )
            assert response.status == 200
            assert response.body["tenant_id"] == "acme"
            # Acting as another tenant is a 403, not a quiet override.
            forbidden = post(
                server,
                "/v1/chat",
                {
                    "tenant_id": "globex",
                    "message": "hi",
                    "app": "chat2db",
                },
                headers,
            )
            assert forbidden.status == 403
            assert forbidden.body["code"] == "tenant_forbidden"
            # No token at all: structured 401.
            rejected = post(
                server, "/v1/chat", {"message": "hi", "app": "chat2db"}
            )
            assert rejected.status == 401
            assert rejected.body["code"] == "unauthorized"
        finally:
            dbgpt.shutdown()


class TestNoRouteAroundTheQuota:
    def test_a_throttled_token_runs_no_app_on_any_route(self, monkeypatch):
        dbgpt = boot_server(principals={"tok-noisy": "noisy"})
        try:
            dbgpt.register_tenant(
                "noisy",
                quota=QuotaConfig(refill_per_second=0.001, burst=1.0),
            )
            # The one token in the bucket goes to a turn; it is empty.
            dbgpt.tenant_chat("noisy", "How many orders are there?")
            ran = []
            for name, app in dbgpt._apps.items():

                def counting(text, name=name, chat=app.chat):
                    ran.append(name)
                    return chat(text)

                monkeypatch.setattr(app, "chat", counting)
            server = dbgpt.server()
            headers = {"Authorization": "Bearer tok-noisy"}
            body = {"message": "How many orders are there?", "app": "chat2db"}
            throttled = post(server, "/v1/chat", dict(body), headers)
            assert throttled.status == 429
            assert throttled.body["code"] == "tenant_throttled"
            for method, pattern in server.router.routes():
                if (method, pattern) == ("POST", "/v1/chat"):
                    continue
                # Every path parameter names a mounted app.
                path = re.sub(r"\{\w+\}", "chat2db", pattern)
                response = server.handle(
                    Request(method, path, dict(body), headers)
                )
                # ``POST /v1/sessions`` answers 201: opening a session
                # is not a turn and costs no quota, but it carries no
                # answer.
                assert "text" not in response.body, (method, pattern)
                if method == "POST" and pattern != "/v1/sessions":
                    assert not response.ok, (method, pattern)
            assert ran == []
        finally:
            dbgpt.shutdown()
