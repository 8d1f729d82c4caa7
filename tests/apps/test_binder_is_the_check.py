"""Apps that run generated SQL without the analysis gate.

``chat2data``, ``chat2viz`` and the agents' chart step execute the
model's SQL directly; the engine's binder is their check. A model that
names a column the schema lacks, behind a filter no row passes, must
get an error response naming the column, not an empty answer.
"""

import asyncio

import pytest

from repro.agents import AgentMemory, AgentMessage, ChartAgent
from repro.apps import Chat2DataApp, Chat2VizApp
from repro.datasets import build_sales_database
from repro.datasources import EngineSource

HALLUCINATED = "SELECT region, SUM(nope) FROM users WHERE 1 = 0 GROUP BY region"


class StubClient:
    """Answers every prompt with one fixed SQL draft."""

    def __init__(self, sql):
        self.sql = sql

    def generate(self, model, prompt, task=None, **kwargs):
        return self.sql

    async def agenerate(self, model, prompt, task=None, **kwargs):
        return self.sql


@pytest.fixture()
def source():
    return EngineSource(build_sales_database(n_orders=40))


def test_chat2data_reports_the_unknown_column(source):
    app = Chat2DataApp(StubClient(HALLUCINATED), source, follow_ups=False)
    response = app.chat("total amount per region")
    assert not response.ok
    assert "unknown column: nope" in response.metadata["error"]


def test_chat2viz_reports_the_unknown_column(source):
    response = Chat2VizApp(StubClient(HALLUCINATED), source).chat(
        "total amount per region"
    )
    assert not response.ok
    assert "unknown column: nope" in response.metadata["error"]


def test_chart_step_reports_the_unknown_column(source):
    agent = ChartAgent(AgentMemory(), StubClient(HALLUCINATED), source)
    message = AgentMessage(
        sender="user", recipient=agent.name, content="chart",
        metadata={"dimension": "region"},
    )
    reply = asyncio.run(agent.generate_reply(message))
    assert not reply.metadata["ok"]
    assert "unknown column: nope" in reply.metadata["error"]
