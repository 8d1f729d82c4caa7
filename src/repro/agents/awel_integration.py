"""AWEL <-> agents: each agent as a workflow operator.

The paper's protocol layer: "DB-GPT's AWEL models each agent as a
distinct operator, thus enabling users to intricately design their
agent-based workflows ... by interconnecting multiple agents to
construct a DAG."

:class:`AgentOperator` runs one archived exchange with any
:class:`ConversableAgent`. :func:`compile_plan_dag` compiles the
*planner's output* — a concrete :class:`~repro.agents.planner.Plan` —
into the Figure 3 DAG: one agent operator per executable step, feeding
``collect → aggregator → report``. Step operators are independent
branches, so the async runner executes them concurrently and their LLM
calls share the serving scheduler's continuous batches.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Optional, Sequence

from repro.agents.base import AgentError, ConversableAgent
from repro.agents.data_agents import AggregatorAgent, ChartAgent, dashboard_of
from repro.agents.messages import AgentMessage
from repro.agents.planner import Plan
from repro.awel.dag import DAG, DAGContext
from repro.awel.operators import (
    InputOperator,
    JoinOperator,
    MapOperator,
    Operator,
)
from repro.obs.span import current_span


class AgentOperator(Operator):
    """An AWEL operator that runs one archived exchange with an agent.

    The request is ``request`` when given (a compiled plan step's,
    fixed at compile time; the upstream value is then only the
    trigger), else the upstream value: its content (strings) or its
    ``content`` key plus the other keys as metadata (dicts). The
    output is the agent's reply message. The agent's name is added to
    the operator's ``awel.operator`` span as ``agent``.
    """

    def __init__(
        self,
        agent: ConversableAgent,
        conversation_id: str = "awel",
        *,
        round: int = 0,
        request: Optional[dict[str, Any]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.agent = agent
        self.conversation_id = conversation_id
        self.round = round
        self.request = request

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        if len(inputs) != 1:
            raise AgentError(
                f"agent operator {self.node_id!r} expects one input"
            )
        # Deep-copied so the archived request never aliases the plan.
        value = (
            copy.deepcopy(self.request)
            if self.request is not None
            else inputs[0]
        )
        if isinstance(value, AgentMessage):
            content, metadata = value.content, value.metadata
        elif isinstance(value, dict):
            content = str(value.get("content", ""))
            metadata = {k: v for k, v in value.items() if k != "content"}
        else:
            content, metadata = str(value), {}
        ctx.tick(self.cost)
        span = current_span()
        if span is not None:
            span.set_attribute("agent", self.agent.name)
        return await self.agent.exchange(
            content,
            conversation_id=self.conversation_id,
            round=self.round,
            metadata=metadata,
        )


def compile_plan_dag(
    plan: Plan,
    *,
    conversation_id: str,
    chart_agents: Sequence[ChartAgent],
    aggregator: AggregatorAgent,
    forecaster: Optional[ConversableAgent] = None,
    name: str = "compiled-plan",
) -> DAG:
    """Compile planner output into an executable AWEL DAG::

        plan ─┬─ chart-1 ───┐
              ├─ chart-2 ───┼─ collect → aggregate → report
              └─ forecast-3 ┘

    Each executable plan step is one :class:`AgentOperator` — a chart
    agent (assigned round-robin) for ``chart`` steps, ``forecaster``
    for ``forecast`` steps — so the agent's ``generate_reply`` is the
    only code for its step. A failing step replies with a failure that
    ``collect`` records; only a plan where *every* step failed raises
    (``no charts were produced``). The final ``report`` node yields
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
        steps: list[Operator] = []
        for round_index, step in enumerate(executable, start=1):
            if step.action == "forecast":
                if forecaster is None:
                    raise AgentError(
                        f"plan step {step.step} needs a forecaster"
                    )
                agent = forecaster
            else:
                agent = next(chart_cycle)
            node = AgentOperator(
                agent,
                conversation_id,
                round=round_index,
                request={
                    "content": (
                        f"produce the {step.action} for step {step.step}: "
                        f"{step.description}"
                    ),
                    **step.params,
                },
                name=f"{step.action}-{step.step}",
            )
            plan_input >> node
            steps.append(node)

        def collect(*replies: AgentMessage) -> dict[str, Any]:
            # Join input order is connection order; the report contract
            # (e.g. the forecast chart rendering last) is the step order.
            charts: list[str] = []
            failures: list[str] = []
            pairs = sorted(
                zip(executable, replies), key=lambda pair: pair[0].step
            )
            for step, reply in pairs:
                if reply.metadata.get("ok") and "chart" in reply.metadata:
                    charts.append(reply.metadata["chart"])
                else:
                    failures.append(
                        f"step {step.step}: "
                        f"{reply.metadata.get('error', 'failed')}"
                    )
            if not charts:
                raise AgentError(
                    f"no charts were produced; failures: {failures}"
                )
            return {
                "content": f"aggregate the report for: {plan.goal}",
                "charts": charts,
                "title": f"Report: {plan.goal}",
                "failures": failures,
            }

        gather = JoinOperator(collect, name="collect")
        for node in steps:
            node >> gather
        aggregate = AgentOperator(
            aggregator,
            conversation_id,
            round=len(plan.steps),
            name="aggregate",
        )
        report = MapOperator(
            lambda reply: {
                "dashboard": dashboard_of(reply),
                "failures": reply.metadata["failures"],
            },
            name="report",
        )
        gather >> aggregate >> report
    return dag
