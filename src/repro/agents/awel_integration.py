"""AWEL <-> agents: each agent as a workflow operator.

The paper's protocol layer: "DB-GPT's AWEL models each agent as a
distinct operator, thus enabling users to intricately design their
agent-based workflows ... by interconnecting multiple agents to
construct a DAG."

:class:`AgentOperator` wraps any :class:`ConversableAgent`;
:func:`build_analysis_dag` expresses the Figure 3 analysis flow as an
explicit DAG — the declarative alternative to the imperative
:class:`~repro.agents.team.DataAnalysisTeam` — and
:func:`run_analysis_workflow` executes it. Chart agents run as
independent DAG branches, so they execute concurrently under the async
runner.

:func:`compile_plan_dag` goes further (ROADMAP item 3): it compiles the
*planner's output* — a concrete :class:`~repro.agents.planner.Plan` —
into an executable DAG whose chart steps are operator chains
``schema-link → sqlgen → execute → viz`` feeding a shared
``collect → aggregate → narrative → report`` tail. The LLM-bound stages
(``sqlgen``, ``narrative``) await :meth:`ConversableAgent.aask_llm`, so
concurrent step chains (and concurrent teams) submit to the serving
scheduler together and share continuous batches instead of queueing
behind one another.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import json
from typing import Any, Optional, Sequence

from repro.agents.base import AgentError, ConversableAgent
from repro.agents.data_agents import AggregatorAgent, ChartAgent
from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.agents.planner import Plan, PlannerAgent, PlanStep
from repro.awel.dag import DAG, DAGContext
from repro.awel.operators import (
    InputOperator,
    JoinOperator,
    MapOperator,
    Operator,
)
from repro.awel.runner import WorkflowRunner
from repro.datasources.base import DataSource
from repro.obs.metrics import Counter, MetricHandle
from repro.obs.tracer import get_tracer
from repro.smmf.client import ClientError
from repro.viz.dashboard import Dashboard
from repro.viz.spec import ChartSpec

_STAGE_RUNS = MetricHandle(
    Counter, "agent_stage_runs_total",
    "compiled-plan stage executions by stage and agent", ("stage", "agent"),
)


class AgentOperator(Operator):
    """An AWEL operator that delivers its input to one agent.

    The upstream value becomes the message content (strings) or the
    message metadata (dicts with a ``content`` key); the operator's
    output is the agent's reply message.
    """

    def __init__(
        self,
        agent: ConversableAgent,
        conversation_id: str = "awel",
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.agent = agent
        self.conversation_id = conversation_id

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        if len(inputs) != 1:
            raise AgentError(
                f"agent operator {self.node_id!r} expects one input"
            )
        value = inputs[0]
        if isinstance(value, AgentMessage):
            content = value.content
            metadata = dict(value.metadata)
        elif isinstance(value, dict):
            content = str(value.get("content", ""))
            metadata = {k: v for k, v in value.items() if k != "content"}
        else:
            content = str(value)
            metadata = {}
        ctx.tick(self.cost)
        message = AgentMessage(
            sender="workflow",
            recipient=self.agent.name,
            content=content,
            conversation_id=self.conversation_id,
            metadata=metadata,
        )
        self.agent.memory.append(message)
        reply = await self.agent.areceive(message)
        self.agent.memory.append(reply)
        return reply


def build_analysis_dag(
    source: DataSource,
    llm_client,
    memory: Optional[AgentMemory] = None,
    dimensions: Optional[list[dict[str, str]]] = None,
    measure: str = "amount",
) -> tuple[DAG, AgentMemory]:
    """Declare the Figure 3 analysis flow as an AWEL DAG.

    ``dimensions`` defaults to the paper's three (category/donut,
    user/bar, month/area). Layout::

        goal -> planner -+-> chart-agent-1 -+
                         +-> chart-agent-2 -+-> aggregate -> dashboard
                         +-> chart-agent-3 -+
    """
    memory = memory if memory is not None else AgentMemory()
    if dimensions is None:
        dimensions = [
            {"dimension": "category", "chart_type": "donut"},
            {"dimension": "user", "chart_type": "bar"},
            {"dimension": "month", "chart_type": "area"},
        ]
    planner = PlannerAgent(
        memory, llm_client, schema=source.describe_schema()
    )
    aggregator = AggregatorAgent(memory, llm_client)

    with DAG("generative-analysis") as dag:
        goal_input = InputOperator(name="goal")
        plan_node = AgentOperator(planner, name="planner")
        goal_input >> plan_node

        chart_nodes = []
        for index, params in enumerate(dimensions, start=1):
            agent = ChartAgent(
                memory,
                llm_client,
                source,
                name=f"chart-agent-{index}",
                measure=measure,
            )
            prepare = MapOperator(
                _make_step_builder(dict(params)),
                name=f"step-{index}",
            )
            chart_node = AgentOperator(agent, name=f"chart-{index}")
            plan_node >> prepare >> chart_node
            chart_nodes.append(chart_node)

        collect = JoinOperator(
            lambda *replies: {
                "content": "aggregate the charts",
                "charts": [
                    reply.metadata["chart"]
                    for reply in replies
                    if reply.metadata.get("ok")
                ],
                "title": "Workflow analysis report",
            },
            name="collect",
        )
        for chart_node in chart_nodes:
            chart_node >> collect
        aggregate_node = AgentOperator(aggregator, name="aggregate")
        to_dashboard = MapOperator(_reply_to_dashboard, name="dashboard")
        collect >> aggregate_node >> to_dashboard
    return dag, memory


def _make_step_builder(params: dict[str, str]):
    def build(plan_reply: AgentMessage) -> dict[str, str]:
        # The plan reply certifies planning happened; each branch then
        # carries its own dimension parameters.
        if not plan_reply.metadata.get("plan"):
            raise AgentError("planner produced no plan")
        return {
            "content": f"produce the {params['dimension']} chart",
            **params,
        }

    return build


def _reply_to_dashboard(reply: AgentMessage) -> Dashboard:
    charts_json = reply.metadata.get("charts", [])
    if not charts_json:
        raise AgentError("aggregation produced no charts")
    return Dashboard(
        title=reply.metadata.get("title", "Workflow analysis report"),
        charts=[ChartSpec.from_json(text) for text in charts_json],
        narrative=reply.metadata.get("narrative", ""),
    )


def run_analysis_workflow(
    source: DataSource,
    llm_client,
    goal: str,
    memory: Optional[AgentMemory] = None,
    dimensions: Optional[list[dict[str, str]]] = None,
) -> Dashboard:
    """Build and run the declarative analysis workflow for ``goal``."""
    dag, _memory = build_analysis_dag(
        source, llm_client, memory=memory, dimensions=dimensions
    )
    ctx = WorkflowRunner(dag).run(goal)
    return ctx.results["dashboard"]


# ---------------------------------------------------------------------------
# Plan compilation (ROADMAP item 3): planner output -> executable DAG.
# ---------------------------------------------------------------------------


class PlanStageOperator(Operator):
    """Base for compiled-plan stages.

    Each stage execution runs inside an ``agent.step`` span (child of
    the team's ``agent.plan`` root) carrying the plan step number, the
    stage name and the executing agent, and is counted in
    ``agent_stage_runs_total``.
    """

    stage = "stage"

    def __init__(
        self,
        agent: ConversableAgent,
        step_no: int,
        conversation_id: str,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.agent = agent
        self.step_no = step_no
        self.conversation_id = conversation_id

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        ctx.tick(self.cost)
        with get_tracer().span(
            "agent.step",
            step=self.step_no,
            stage=self.stage,
            agent=self.agent.name,
        ):
            result = await self.run_stage(ctx, inputs)
        _STAGE_RUNS.labels(self.stage, self.agent.name)()
        return result

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        raise NotImplementedError

    def _archive_reply(self, state: dict, reply: AgentMessage) -> dict:
        self.agent.memory.append(reply)
        state["reply"] = reply
        return state


class SchemaLinkOperator(PlanStageOperator):
    """Stage 1 of a chart step: archive the request, link the schema.

    Replicates :meth:`ConversableAgent.receive` semantics: the archive
    is consulted first, and a recalled answer short-circuits the whole
    chain (the remaining stages pass the reply through untouched).
    """

    stage = "schema-link"

    def __init__(
        self,
        agent: ChartAgent,
        step: PlanStep,
        conversation_id: str,
        round_index: int,
        **kwargs: Any,
    ) -> None:
        super().__init__(agent, step.step, conversation_id, **kwargs)
        self.step = step
        self.round_index = round_index

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        step = self.step
        request = AgentMessage(
            sender="user",
            recipient=self.agent.name,
            content=(
                f"produce the chart for step {step.step}: "
                f"{step.description}"
            ),
            conversation_id=self.conversation_id,
            round=self.round_index,
            metadata=copy.deepcopy(step.params),
        )
        self.agent.memory.append(request)
        state: dict = {"step": step.step, "request": request, "reply": None}
        recalled = self.agent._recalled(request)
        if recalled is not None:
            return self._archive_reply(state, recalled)
        link = self.agent.link_schema(request)
        if not link["ok"]:
            return self._archive_reply(
                state, self.agent.unknown_dimension_reply(request, link)
            )
        state["link"] = link
        return state


class SqlGenOperator(PlanStageOperator):
    """Stage 2: text2sql through the async serving path.

    ``aask_llm`` submits to the continuous-batching scheduler when the
    client exposes one, so sibling chart steps (and other teams) share
    batches. A transport failure that survives the client's own retry
    and failover budget becomes a recorded step failure, not a dead
    plan.
    """

    stage = "sqlgen"

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        state = inputs[0]
        if state["reply"] is not None:
            return state
        try:
            state["sql"] = await self.agent.aask_llm(
                state["link"]["prompt"], task="text2sql"
            )
        except ClientError as exc:
            return self._archive_reply(
                state,
                self.agent.reply_to(
                    state["request"],
                    f"chart query generation failed: {exc}",
                    metadata={"ok": False, "error": str(exc)},
                ),
            )
        return state


class ExecuteOperator(PlanStageOperator):
    """Stage 3: run the SQL against the source (off the event loop)."""

    stage = "execute"

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        state = inputs[0]
        if state["reply"] is not None:
            return state
        state["result"] = await asyncio.to_thread(
            self.agent.execute_chart, state["link"], state["sql"]
        )
        return state


class VizOperator(PlanStageOperator):
    """Stage 4: shape the result into the chart reply and archive it."""

    stage = "viz"

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        state = inputs[0]
        if state["reply"] is not None:
            return state
        reply = self.agent.chart_reply(
            state["request"], state["link"], state["sql"], state["result"]
        )
        return self._archive_reply(state, reply)


class ForecastStepOperator(PlanStageOperator):
    """A forecast plan step as a single (async) agent exchange."""

    stage = "forecast"

    def __init__(
        self,
        agent: ConversableAgent,
        step: PlanStep,
        conversation_id: str,
        round_index: int,
        **kwargs: Any,
    ) -> None:
        super().__init__(agent, step.step, conversation_id, **kwargs)
        self.step = step
        self.round_index = round_index

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        step = self.step
        request = AgentMessage(
            sender="user",
            recipient=self.agent.name,
            content=(
                f"produce the forecast for step {step.step}: "
                f"{step.description}"
            ),
            conversation_id=self.conversation_id,
            round=self.round_index,
            metadata=copy.deepcopy(step.params),
        )
        self.agent.memory.append(request)
        reply = await self.agent.areceive(request)
        state: dict = {"step": step.step, "request": request, "reply": None}
        return self._archive_reply(state, reply)


class AggregateOperator(PlanStageOperator):
    """Archive the aggregation request and assemble the dashboard."""

    stage = "aggregate"

    def __init__(
        self,
        agent: AggregatorAgent,
        plan: Plan,
        conversation_id: str,
        **kwargs: Any,
    ) -> None:
        super().__init__(agent, len(plan.steps), conversation_id, **kwargs)
        self.plan = plan

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        collected = inputs[0]
        request = AgentMessage(
            sender="user",
            recipient=self.agent.name,
            content=f"aggregate the report for: {self.plan.goal}",
            conversation_id=self.conversation_id,
            round=len(self.plan.steps),
            metadata={
                "charts": collected["charts"],
                "title": f"Report: {self.plan.goal}",
            },
        )
        self.agent.memory.append(request)
        dashboard, lines = self.agent.assemble(request)
        return {
            "request": request,
            "dashboard": dashboard,
            "lines": lines,
            "failures": collected["failures"],
        }


class NarrativeOperator(PlanStageOperator):
    """Refine the narrative via the async LLM path, archive the reply.

    A transport failure degrades to the plain-line narrative — the
    same fallback :class:`AggregatorAgent` applies synchronously.
    """

    stage = "narrative"

    async def run_stage(self, ctx: DAGContext, inputs: list[Any]) -> dict:
        state = inputs[0]
        lines = state["lines"]
        narrative = " ".join(lines)
        if self.agent.llm_client is not None:
            try:
                narrative = await self.agent.aask_llm(
                    self.agent.narrative_prompt(lines), task="summary"
                )
            except ClientError:
                pass
        reply = self.agent.finalize(
            state["request"], state["dashboard"], narrative
        )
        self.agent.memory.append(reply)
        return {
            "reply": reply,
            "dashboard": state["dashboard"],
            "failures": state["failures"],
        }


def _collect_step_states(*states: dict) -> dict:
    """Join the per-step chains: split chart specs from failures.

    States are re-ordered by plan step number — join input order is
    connection order, but the report contract (e.g. the forecast chart
    rendering last) is defined by the plan.
    """
    charts: list[str] = []
    failures: list[str] = []
    for state in sorted(states, key=lambda s: s["step"]):
        reply = state["reply"]
        if reply.metadata.get("ok") and "chart" in reply.metadata:
            charts.append(reply.metadata["chart"])
        else:
            failures.append(
                f"step {state['step']}: "
                f"{reply.metadata.get('error', 'failed')}"
            )
    if not charts:
        raise AgentError(f"no charts were produced; failures: {failures}")
    return {"charts": charts, "failures": failures}


def _to_report(state: dict) -> dict:
    return {"dashboard": state["dashboard"], "failures": state["failures"]}


def compile_plan_dag(
    plan: Plan,
    *,
    conversation_id: str,
    chart_agents: Sequence[ChartAgent],
    aggregator: AggregatorAgent,
    forecaster: Optional[ConversableAgent] = None,
    name: str = "compiled-plan",
) -> DAG:
    """Compile planner output into an executable AWEL DAG.

    Each executable plan step becomes its own operator chain —
    ``schema-link → sqlgen → execute → viz`` for chart steps (agents
    assigned round-robin, as the imperative team does), one
    :class:`ForecastStepOperator` for forecast steps — all feeding
    ``collect → aggregate → narrative → report``. Step chains are
    independent subgraphs, so the async runner executes them
    concurrently and their LLM calls coalesce in the serving scheduler.

    A failing step short-circuits its own chain into a failure reply
    that ``collect`` records; only a plan where *every* step failed
    raises (``no charts were produced``), matching the imperative
    team's contract. The final ``report`` node yields
    ``{"dashboard": Dashboard, "failures": [str, ...]}``.
    """
    executable = [
        step for step in plan.steps if step.action in ("chart", "forecast")
    ]
    if not executable:
        raise AgentError(
            "no charts were produced; the plan has no executable steps"
        )
    chart_cycle = itertools.cycle(chart_agents)
    with DAG(name) as dag:
        plan_input = InputOperator(name="plan")
        tails: list[Operator] = []
        for round_index, step in enumerate(executable, start=1):
            if step.action == "forecast":
                if forecaster is None:
                    raise AgentError(
                        f"plan step {step.step} needs a forecaster"
                    )
                node = ForecastStepOperator(
                    forecaster,
                    step,
                    conversation_id,
                    round_index,
                    name=f"forecast-{step.step}",
                )
                plan_input >> node
                tails.append(node)
                continue
            agent = next(chart_cycle)
            link = SchemaLinkOperator(
                agent,
                step,
                conversation_id,
                round_index,
                name=f"schema-link-{step.step}",
            )
            sqlgen = SqlGenOperator(
                agent, step.step, conversation_id,
                name=f"sqlgen-{step.step}",
            )
            execute = ExecuteOperator(
                agent, step.step, conversation_id,
                name=f"execute-{step.step}",
            )
            viz = VizOperator(
                agent, step.step, conversation_id,
                name=f"viz-{step.step}",
            )
            plan_input >> link >> sqlgen >> execute >> viz
            tails.append(viz)
        collect = JoinOperator(_collect_step_states, name="collect")
        for tail in tails:
            tail >> collect
        aggregate = AggregateOperator(
            aggregator, plan, conversation_id, name="aggregate"
        )
        narrative = NarrativeOperator(
            aggregator, len(plan.steps), conversation_id, name="narrative"
        )
        report = MapOperator(_to_report, name="report")
        collect >> aggregate >> narrative >> report
    return dag
