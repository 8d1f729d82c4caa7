"""The paper's §3 demonstration, end to end as one integration test.

Walks every numbered area of Figure 3 through the *served* stack (the
HTTP-shaped server layer in front of the application layer), plus the
multilingual and privacy properties the demo narrative claims.
"""

import pytest

from repro.core import DBGPT, DbGptConfig
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.server import Request
from repro.viz import ChartType

GOAL = (
    "Build sales reports and analyze user orders from at least three "
    "distinct dimensions"
)


@pytest.fixture(scope="module")
def stack():
    dbgpt = DBGPT.boot(DbGptConfig(privacy=True))
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=240)))
    dbgpt.register_tenant("demo")
    return dbgpt, dbgpt.server()


def served_turn(message):
    """A ``chat2data`` turn of tenant ``demo`` over ``POST /v1/chat``."""
    body = {"tenant_id": "demo", "app": "chat2data", "message": message}
    return Request("POST", "/v1/chat", body)


class TestDemonstrationWalkthrough:
    def test_area_1_2_new_chat_session_accepts_the_command(self, stack):
        dbgpt, _server = stack
        session = dbgpt.session("data_analysis")
        response = session.send(GOAL)
        assert response.ok
        assert len(session) == 1

    def test_area_3_planner_strategy(self, stack):
        dbgpt, _server = stack
        report = dbgpt.app("data_analysis").last_report
        assert len(report.plan.steps) == 4
        assert [s.action for s in report.plan.steps] == [
            "chart", "chart", "chart", "aggregate",
        ]

    def test_area_4_three_specialized_agents_make_charts(self, stack):
        dbgpt, _server = stack
        report = dbgpt.app("data_analysis").last_report
        senders = {
            m.sender
            for m in dbgpt.app("data_analysis").memory.conversation(
                report.conversation_id
            )
        }
        assert {
            "chart-agent-1", "chart-agent-2", "chart-agent-3"
        } <= senders
        types = {c.chart_type for c in report.dashboard.charts}
        assert types == {ChartType.DONUT, ChartType.BAR, ChartType.AREA}

    def test_area_5_aggregated_front_end_presentation(self, stack):
        dbgpt, _server = stack
        report = dbgpt.app("data_analysis").last_report
        html = report.dashboard.render_html()
        assert html.count("<svg") == 3
        assert report.dashboard.narrative

    def test_area_6_alter_chart_type(self, stack):
        dbgpt, _server = stack
        app = dbgpt.app("data_analysis")
        title = app.last_report.dashboard.charts[0].title
        altered = app.alter_chart(title, "pie")
        assert altered.ok
        assert altered.payload.chart_type is ChartType.PIE

    def test_area_7_conversation_continues_via_server(self, stack):
        _dbgpt, server = stack
        response = server.handle(
            served_turn("What is the total amount per segment?")
        )
        assert response.status == 200
        assert "breakdown" in response.body["text"]

    def test_demo_also_works_in_chinese(self, stack):
        _dbgpt, server = stack
        response = server.handle(served_turn("订单一共有多少个？"))
        assert response.status == 200
        assert "240" in response.body["text"]

    def test_privacy_holds_at_the_boundary(self, stack):
        dbgpt, server = stack
        before = dbgpt.model_metrics().get("sql-coder", {}).get(
            "prompt_tokens", 0
        )
        response = server.handle(
            served_turn(
                "How many orders are there? ping me at demo@corp.example"
            )
        )
        assert response.status == 200
        # The user's PII round-trips back in the visible answer path,
        # and the models served more tokens (the request did go through).
        after = dbgpt.model_metrics()["sql-coder"]["prompt_tokens"]
        assert after > before
