"""Tests for memory, agents, planner and the analysis team."""

import asyncio

import pytest

from repro.agents import (
    AgentError,
    AgentMemory,
    AgentMessage,
    ChartAgent,
    DataAnalysisTeam,
    PlannerAgent,
)
from repro.agents.base import ConversableAgent
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import ChatModel, PlannerModel, SqlCoderModel
from repro.smmf import ModelSpec, deploy


@pytest.fixture(scope="module")
def client():
    _controller, client = deploy(
        [
            ModelSpec("sql-coder", lambda: SqlCoderModel("sql-coder")),
            ModelSpec("planner", lambda: PlannerModel("planner")),
            ModelSpec("chat", lambda: ChatModel("chat")),
        ]
    )
    return client


@pytest.fixture
def source():
    return EngineSource(build_sales_database(n_orders=120))


class TestMemory:
    def message(self, content="hello", conv="c1", sender="a"):
        return AgentMessage(
            sender=sender, recipient="b", content=content, conversation_id=conv
        )

    def test_append_and_query(self):
        memory = AgentMemory()
        memory.append(self.message())
        memory.append(self.message(conv="c2"))
        assert len(memory) == 2
        assert len(memory.conversation("c1")) == 1

    def test_by_agent(self):
        memory = AgentMemory()
        memory.append(self.message(sender="x"))
        memory.append(self.message(sender="y"))
        assert len(memory.by_agent("x")) == 1
        assert len(memory.by_agent("b")) == 2

    def test_search(self):
        memory = AgentMemory()
        memory.append(self.message(content="The SQL failed"))
        assert memory.search("sql failed")
        assert not memory.search("nothing")

    def test_last_answer(self):
        memory = AgentMemory()
        memory.append(self.message(content="first"))
        memory.append(self.message(content="second"))
        assert memory.last_answer("c1").content == "second"
        assert memory.last_answer("zzz") is None

    def test_recall_similar_matches_request_metadata(self):
        memory = AgentMemory()
        reply = AgentMessage(
            sender="agent", recipient="user", content="42",
            metadata={"request": "What is the answer?"},
        )
        memory.append(reply)
        found = memory.recall_similar("what is  the ANSWER?", sender="agent")
        assert found is reply
        assert memory.recall_similar("other question", sender="agent") is None

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "archive.json"
        memory = AgentMemory(path)
        memory.append(self.message(content="persisted"))
        reloaded = AgentMemory(path)
        assert len(reloaded) == 1
        assert reloaded.conversation("c1")[0].content == "persisted"

    def test_conversation_ids_ordered(self):
        memory = AgentMemory()
        memory.append(self.message(conv="c2"))
        memory.append(self.message(conv="c1"))
        memory.append(self.message(conv="c2"))
        assert memory.conversation_ids() == ["c2", "c1"]

    def test_clear(self, tmp_path):
        path = tmp_path / "archive.json"
        memory = AgentMemory(path)
        memory.append(self.message())
        memory.clear()
        assert len(AgentMemory(path)) == 0


class _EchoAgent(ConversableAgent):
    def __init__(self, memory, **kwargs):
        super().__init__("echo", "echoes", memory, **kwargs)
        self.calls = 0

    async def generate_reply(self, message):
        self.calls += 1
        return self.reply_to(message, f"echo:{message.content}")


def ask(agent, content, **kwargs):
    return asyncio.run(agent.exchange(content, **kwargs))


class TestConversableAgent:
    def test_send_archives_both_sides(self):
        memory = AgentMemory()
        agent = _EchoAgent(memory)
        reply = ask(agent, "ping", conversation_id="t")
        assert reply.content == "echo:ping"
        request, archived = memory.conversation("t")
        assert (request.sender, request.recipient) == ("user", "echo")
        assert archived is reply
        assert (reply.sender, reply.recipient) == ("echo", "user")

    def test_recall_avoids_recomputation(self):
        responder = _EchoAgent(AgentMemory())
        ask(responder, "same question")
        ask(responder, "same question")
        assert responder.calls == 1  # second answer recalled from archive

    def test_recall_disabled_recomputes(self):
        responder = _EchoAgent(AgentMemory(), use_recall=False)
        ask(responder, "same question")
        ask(responder, "same question")
        assert responder.calls == 2

    def test_a_recall_hit_generates_nothing(self):
        memory = AgentMemory()
        agent = _EchoAgent(memory)
        archived = ask(agent, "total sales by region", conversation_id="c1")
        recalled = ask(
            agent,
            "Total  sales by REGION",
            conversation_id="conv-2",
            round=3,
        )
        assert agent.calls == 1
        assert recalled.content == archived.content
        assert recalled.metadata["recalled_from"] == archived.message_id
        assert recalled.metadata["request"] == "Total  sales by REGION"
        assert (recalled.conversation_id, recalled.round) == ("conv-2", 3)

    def test_recall_miss_generates_a_fresh_reply(self):
        agent = _EchoAgent(AgentMemory())
        first = ask(agent, "first question")
        second = ask(agent, "second question")
        assert agent.calls == 2
        assert (first.content, second.content) == (
            "echo:first question",
            "echo:second question",
        )
        assert "recalled_from" not in second.metadata

    def test_ask_llm_without_binding_raises(self):
        agent = _EchoAgent(AgentMemory())
        with pytest.raises(AgentError, match="no LLM binding"):
            asyncio.run(agent.ask_llm("prompt"))


class TestPlannerAgent:
    def test_make_plan_structure(self, client):
        planner = PlannerAgent(AgentMemory(), client)
        plan = asyncio.run(
            planner.make_plan(
                "Build sales reports from at least three distinct dimensions"
            )
        )
        assert len(plan.chart_steps) == 3
        assert plan.steps[-1].action == "aggregate"

    def test_reply_carries_plan_metadata(self, client):
        memory = AgentMemory()
        planner = PlannerAgent(memory, client)
        message = AgentMessage(
            sender="user", recipient="planner",
            content="analyze sales from three dimensions",
        )
        reply = asyncio.run(planner.generate_reply(message))
        assert reply.metadata["plan"]
        assert "Plan for" in reply.content


class TestChartAgent:
    @pytest.mark.parametrize(
        "dimension,chart_type",
        [("category", "donut"), ("user", "bar"), ("month", "area")],
    )
    def test_chart_per_dimension(self, client, source, dimension, chart_type):
        agent = ChartAgent(AgentMemory(), client, source)
        message = AgentMessage(
            sender="user", recipient=agent.name, content="chart please",
            metadata={"dimension": dimension, "chart_type": chart_type},
        )
        reply = asyncio.run(agent.generate_reply(message))
        assert reply.metadata["ok"], reply.content
        from repro.viz import ChartSpec

        spec = ChartSpec.from_json(reply.metadata["chart"])
        assert spec.chart_type.value == chart_type
        assert spec.points

    def test_unknown_dimension_fails_gracefully(self, client, source):
        agent = ChartAgent(AgentMemory(), client, source)
        message = AgentMessage(
            sender="user", recipient=agent.name, content="chart",
            metadata={"dimension": "astrology"},
        )
        reply = asyncio.run(agent.generate_reply(message))
        assert not reply.metadata["ok"]


class TestDataAnalysisTeam:
    def test_figure3_flow(self, client, source):
        team = DataAnalysisTeam(source, client)
        report = team.run(
            "Build sales reports and analyze user orders from at least "
            "three distinct dimensions"
        )
        # A four-step plan: three charts + aggregate (Figure 3, area 3).
        assert len(report.plan.steps) == 4
        assert len(report.dashboard.charts) == 3
        chart_types = {c.chart_type.value for c in report.dashboard.charts}
        assert chart_types == {"donut", "bar", "area"}
        assert report.failures == []
        assert report.message_count >= 8

    def test_all_messages_archived(self, client, source):
        team = DataAnalysisTeam(source, client)
        report = team.run("sales report from three dimensions")
        archived = team.memory.conversation(report.conversation_id)
        assert len(archived) == report.message_count
        senders = {m.sender for m in archived}
        assert "planner" in senders
        assert "aggregator" in senders

    def test_forecast_goal_adds_forecast_step(self, client, source):
        team = DataAnalysisTeam(source, client)
        report = team.run(
            "sales report from three dimensions and forecast the next "
            "2 months"
        )
        actions = [step.action for step in report.plan.steps]
        assert actions == ["chart", "chart", "chart", "forecast", "aggregate"]
        forecast_chart = report.dashboard.charts[-1]
        assert "forecast" in forecast_chart.title
        # 12 months of history plus the 2 projected periods.
        assert len(forecast_chart.points) == 14

    def test_a_plan_makes_no_thread_hop(self, client, source, monkeypatch):
        """Every agent replies on the run's event loop: the planner,
        chart, forecast and aggregator exchanges and the chart queries
        park no thread."""
        hops = []
        real_to_thread = asyncio.to_thread

        def counting_to_thread(fn, *args, **kwargs):
            hops.append(getattr(fn, "__qualname__", repr(fn)))
            return real_to_thread(fn, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
        team = DataAnalysisTeam(source, client, use_recall=False)
        report = team.run(
            "sales report from three dimensions and forecast the next "
            "2 months"
        )
        actions = [step.action for step in report.plan.steps]
        assert actions == ["chart", "chart", "chart", "forecast", "aggregate"]
        assert report.failures == []
        assert hops == []

    def test_chart_type_alteration_after_run(self, client, source):
        team = DataAnalysisTeam(source, client)
        report = team.run("sales report from three dimensions")
        first = report.dashboard.charts[0]
        altered = report.dashboard.alter_chart_type(first.title, "table")
        assert altered.chart_type.value == "table"
        assert altered.points == first.points
