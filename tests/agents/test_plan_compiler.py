"""Tests for compiling planner output into executable AWEL DAGs."""

import pytest

from repro.agents import (
    AgentError,
    AgentMemory,
    DataAnalysisTeam,
    Plan,
    PlanStep,
)
from repro.agents.awel_integration import compile_plan_dag
from repro.awel.runner import WorkflowRunner
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import ChatModel, PlannerModel, SqlCoderModel
from repro.obs.tracer import get_tracer
from repro.smmf import ModelSpec, deploy

GOAL = "sales report from three dimensions"


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


def chart_plan(dimensions=("category", "user", "month"), forecast=False):
    steps = [
        PlanStep(
            step=index,
            action="chart",
            description=f"by {dimension}",
            params={"dimension": dimension, "chart_type": "bar"},
        )
        for index, dimension in enumerate(dimensions, start=1)
    ]
    if forecast:
        steps.append(
            PlanStep(
                step=len(steps) + 1,
                action="forecast",
                description="project the measure",
                params={"horizon": 2},
            )
        )
    steps.append(
        PlanStep(step=len(steps) + 1, action="aggregate", description="")
    )
    return Plan(goal="compiled", steps=steps)


class TestCompiledDagShape:
    def test_chart_steps_become_agent_operators(self, client, source):
        team = DataAnalysisTeam(source, client)
        dag = compile_plan_dag(
            chart_plan(),
            conversation_id="compile-test",
            chart_agents=team.chart_agents,
            aggregator=team.aggregator,
            forecaster=team.forecaster,
        )
        node_ids = {node.node_id for node in dag.nodes.values()}
        # 1 input + one agent operator per chart step + collect/
        # aggregate/report.
        assert node_ids == {
            "plan", "chart-1", "chart-2", "chart-3",
            "collect", "aggregate", "report",
        }
        # Chart agents are assigned round-robin, one per step.
        assert [dag.nodes[f"chart-{n}"].agent.name for n in (1, 2, 3)] == [
            "chart-agent-1", "chart-agent-2", "chart-agent-3",
        ]
        assert dag.nodes["aggregate"].agent is team.aggregator
        assert [n.node_id for n in dag.roots()] == ["plan"]
        assert [n.node_id for n in dag.leaves()] == ["report"]

    def test_forecast_step_is_a_single_branch(self, client, source):
        team = DataAnalysisTeam(source, client)
        dag = compile_plan_dag(
            chart_plan(forecast=True),
            conversation_id="compile-forecast",
            chart_agents=team.chart_agents,
            aggregator=team.aggregator,
            forecaster=team.forecaster,
        )
        node_ids = {node.node_id for node in dag.nodes.values()}
        assert "forecast-4" in node_ids
        assert dag.nodes["forecast-4"].agent is team.forecaster
        assert dag.upstream_of("forecast-4") == ["plan"]
        assert dag.downstream_of("forecast-4") == ["collect"]

    def test_plan_without_executable_steps_raises(self, client, source):
        team = DataAnalysisTeam(source, client)
        plan = Plan(
            goal="nothing",
            steps=[PlanStep(step=1, action="aggregate", description="")],
        )
        with pytest.raises(AgentError, match="no charts"):
            compile_plan_dag(
                plan,
                conversation_id="empty",
                chart_agents=team.chart_agents,
                aggregator=team.aggregator,
            )


class TestCompiledDagExecution:
    def run_plan(self, team, plan, conversation_id):
        dag = compile_plan_dag(
            plan,
            conversation_id=conversation_id,
            chart_agents=team.chart_agents,
            aggregator=team.aggregator,
            forecaster=team.forecaster,
        )
        ctx = WorkflowRunner(dag).run(plan)
        return ctx.results["report"]

    def test_produces_the_dashboard(self, client, source):
        team = DataAnalysisTeam(source, client)
        outcome = self.run_plan(team, chart_plan(), "compiled-run")
        assert len(outcome["dashboard"].charts) == 3
        assert outcome["failures"] == []
        assert outcome["dashboard"].narrative

    def test_archives_requests_and_replies_per_step(self, client, source):
        team = DataAnalysisTeam(source, client)
        self.run_plan(team, chart_plan(), "compiled-archive")
        archived = team.memory.conversation("compiled-archive")
        # 2 per chart step + 2 for the aggregation exchange.
        assert len(archived) == 8
        senders = {m.sender for m in archived}
        assert {
            "user", "aggregator",
            "chart-agent-1", "chart-agent-2", "chart-agent-3",
        } <= senders

    def test_failed_step_is_recorded_not_fatal(self, client, source):
        team = DataAnalysisTeam(source, client)
        plan = chart_plan(dimensions=("category", "astrology"))
        outcome = self.run_plan(team, plan, "compiled-partial")
        assert len(outcome["dashboard"].charts) == 1
        assert outcome["failures"] == [
            "step 2: unknown dimension astrology"
        ]

    def test_all_steps_failing_raises_no_charts(self, client, source):
        team = DataAnalysisTeam(source, client)
        plan = chart_plan(dimensions=("astrology", "numerology"))
        with pytest.raises(AgentError, match="no charts"):
            self.run_plan(team, plan, "compiled-failures")

    def test_forecast_chart_renders_last(self, client, source):
        team = DataAnalysisTeam(source, client)
        outcome = self.run_plan(
            team, chart_plan(forecast=True), "compiled-forecast-run"
        )
        assert len(outcome["dashboard"].charts) == 4
        assert "forecast" in outcome["dashboard"].charts[-1].title


class TestPlanTracing:
    def test_plan_root_span_with_step_children(self, client, source):
        tracer = get_tracer()
        tracer.clear()
        team = DataAnalysisTeam(source, client)
        report = team.run(GOAL)
        spans = tracer.last_trace()
        names = [span.name for span in spans]
        assert "agent.plan" in names
        # One awel.operator span per agent exchange, carrying the
        # step's node id and the agent's name.
        exchanges = {
            s.attributes["operator"]: s.attributes["agent"]
            for s in spans
            if s.name == "awel.operator"
            and s.attributes["type"] == "AgentOperator"
        }
        assert exchanges == {
            "chart-1": "chart-agent-1",
            "chart-2": "chart-agent-2",
            "chart-3": "chart-agent-3",
            "aggregate": "aggregator",
        }
        root = next(s for s in spans if s.name == "agent.plan")
        assert root.attributes["conversation"] == report.conversation_id
