"""Tests for agents-as-operators (the AWEL protocol-layer link)."""

import pytest

from repro.agents import AgentMemory, DataAnalysisTeam, Plan, PlanStep
from repro.agents.awel_integration import AgentOperator, compile_plan_dag
from repro.agents.base import ConversableAgent
from repro.awel import DAG, AwelError, InputOperator, MapOperator, run_dag
from repro.awel.runner import WorkflowRunner
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


@pytest.fixture(scope="module")
def source():
    return EngineSource(build_sales_database(n_orders=120))


class _UpperAgent(ConversableAgent):
    def __init__(self, memory):
        super().__init__("upper", "uppercases", memory, use_recall=False)

    async def generate_reply(self, message):
        return self.reply_to(message, message.content.upper())


class TestAgentOperator:
    def test_agent_as_operator(self):
        memory = AgentMemory()
        with DAG("d") as dag:
            src = InputOperator(name="src")
            agent_node = AgentOperator(_UpperAgent(memory), name="agent")
            extract = MapOperator(lambda reply: reply.content, name="out")
            src >> agent_node >> extract
        assert run_dag(dag, "hello") == "HELLO"
        # The exchange was archived like any agent conversation.
        assert len(memory) == 2

    def test_dict_input_becomes_metadata(self):
        memory = AgentMemory()

        class Echo(ConversableAgent):
            def __init__(self):
                super().__init__("echo", "", memory, use_recall=False)

            async def generate_reply(self, message):
                return self.reply_to(
                    message, f"{message.content}|{message.metadata['tag']}"
                )

        with DAG("d") as dag:
            src = InputOperator(name="src")
            node = AgentOperator(Echo(), name="agent")
            out = MapOperator(lambda r: r.content, name="out")
            src >> node >> out
        result = run_dag(dag, {"content": "hi", "tag": "t1"})
        assert result == "hi|t1"

    def test_multiple_inputs_rejected(self):
        memory = AgentMemory()
        with DAG("d") as dag:
            a = InputOperator(value=1, name="a")
            b = InputOperator(value=2, name="b")
            node = AgentOperator(_UpperAgent(memory), name="agent")
            a >> node
            b >> node
        from repro.agents import AgentError

        with pytest.raises(AgentError, match="one input"):
            run_dag(dag, None)


def plan_for(goal, dimensions):
    steps = [
        PlanStep(
            step=index,
            action="chart",
            description=f"by {params['dimension']}",
            params=params,
        )
        for index, params in enumerate(dimensions, start=1)
    ]
    steps.append(PlanStep(step=len(steps) + 1, action="aggregate"))
    return Plan(goal=goal, steps=steps)


def run_plan(team, plan, conversation_id="workflow"):
    dag = compile_plan_dag(
        plan,
        conversation_id=conversation_id,
        chart_agents=team.chart_agents,
        aggregator=team.aggregator,
        forecaster=team.forecaster,
    )
    return WorkflowRunner(dag).run(plan).results["report"]


THREE_DIMENSIONS = [
    {"dimension": "category", "chart_type": "donut"},
    {"dimension": "user", "chart_type": "bar"},
    {"dimension": "month", "chart_type": "area"},
]


class TestAnalysisWorkflow:
    """The Figure 3 flow as a compiled AWEL DAG of agent operators."""

    def test_declarative_flow_matches_imperative_team(self, client, source):
        goal = "sales report from three dimensions"
        report = DataAnalysisTeam(source, client, use_recall=False).run(goal)
        outcome = run_plan(
            DataAnalysisTeam(source, client, use_recall=False), report.plan
        )
        assert outcome["failures"] == report.failures == []
        assert [
            (c.chart_type, c.title, c.points)
            for c in outcome["dashboard"].charts
        ] == [
            (c.chart_type, c.title, c.points)
            for c in report.dashboard.charts
        ]
        types = {c.chart_type.value for c in outcome["dashboard"].charts}
        assert types == {"donut", "bar", "area"}

    def test_custom_dimensions(self, client, source):
        team = DataAnalysisTeam(source, client)
        outcome = run_plan(
            team,
            plan_for(
                "regional report",
                [
                    {"dimension": "region", "chart_type": "bar"},
                    {"dimension": "segment", "chart_type": "donut"},
                ],
            ),
        )
        assert len(outcome["dashboard"].charts) == 2

    def test_memory_shared_across_operators(self, client, source):
        memory = AgentMemory()
        team = DataAnalysisTeam(source, client, memory=memory)
        run_plan(team, plan_for("sales report", THREE_DIMENSIONS))
        archived = memory.conversation("workflow")
        # One request and one reply per step and for the aggregation.
        assert len(archived) == 2 * 4
        assert {m.sender for m in archived} == {
            "user", "chart-agent-1", "chart-agent-2", "chart-agent-3",
            "aggregator",
        }

    def test_dag_shape(self, client, source):
        team = DataAnalysisTeam(source, client)
        dag = compile_plan_dag(
            plan_for("sales report", THREE_DIMENSIONS),
            conversation_id="shape",
            chart_agents=team.chart_agents,
            aggregator=team.aggregator,
        )
        # plan -> 3 chart steps -> collect -> aggregate -> report.
        assert len(dag) == 7
        assert [n.node_id for n in dag.roots()] == ["plan"]
        assert [n.node_id for n in dag.leaves()] == ["report"]
        assert dag.upstream_of("collect") == ["chart-1", "chart-2", "chart-3"]


class TestRunnerDeadlockRegression:
    def test_failing_root_propagates_instead_of_hanging(self):
        """A root-node failure must fail the run, not deadlock it."""
        with DAG("d") as dag:
            # MapOperator as a root: raises (expects one input).
            bad_root = MapOperator(lambda v: v, name="bad_root")
            downstream = MapOperator(lambda v: v, name="down")
            bad_root >> downstream
        with pytest.raises(AwelError, match="exactly one input"):
            WorkflowRunner(dag).run("payload")

    def test_failing_middle_node_propagates(self):
        with DAG("d") as dag:
            src = InputOperator(name="src")
            boom = MapOperator(
                lambda v: (_ for _ in ()).throw(RuntimeError("boom")),
                name="boom",
            )
            after = MapOperator(lambda v: v, name="after")
            src >> boom >> after
        with pytest.raises(RuntimeError, match="boom"):
            WorkflowRunner(dag).run(1)
