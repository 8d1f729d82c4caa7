"""Team orchestration: the generative data analysis flow of Figure 3.

A user goal enters; the planner devises a strategy; the plan is
compiled into an AWEL DAG (one agent operator per step, joined into
``collect → aggregate → report``) and executed by the async workflow
runner, so independent steps run concurrently and their LLM calls
share serving batches. Every message is archived in the shared
:class:`AgentMemory`, and the whole run is traced under one
``agent.plan`` span with an ``awel.operator`` child per agent
exchange.
"""

from __future__ import annotations

import copy
import os
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.agents.awel_integration import compile_plan_dag
from repro.agents.base import AgentError
from repro.agents.data_agents import AggregatorAgent, ChartAgent
from repro.agents.forecast import ForecastAgent
from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.agents.planner import Plan, PlannerAgent, PlanStep
from repro.awel.runner import WorkflowRunner
from repro.cache.keys import instance_token
from repro.datasources.base import DataSource
from repro.obs.metrics import Counter, Histogram, MetricHandle
from repro.obs.tracer import get_tracer
from repro.runtime import run_sync
from repro.smmf.client import ClientError
from repro.viz.dashboard import Dashboard

#: Mixed into every conversation id: per-process OS entropy, drawn once
#: at import. ``instance_token()`` alone restarts from 1 in every new
#: process, so ids derived only from it collide across restarts that
#: share a persisted archive.
_process_seed = int.from_bytes(os.urandom(8), "big")

#: Client error statuses worth re-sending a whole planner request for
#: (the client has already exhausted its own per-call retry budget).
_RESENDABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})

#: ``status``: ``ok``, ``degraded`` (recorded failures) or ``error``.
_PLAN_LATENCY = MetricHandle(
    Histogram, "agent_plan_latency_ms", "wall time of one full analysis plan",
    ("status",),
)
_PLAN_RETRIES = MetricHandle(
    Counter, "agent_plan_retries_total",
    "planner requests re-sent after transient failures",
)


def new_conversation_id(rng: Optional[random.Random] = None) -> str:
    """Process-unique conversation id for one analysis run.

    The old module-level ``itertools.count(1)`` produced ``analysis-1``,
    ``analysis-2``, ... — two teams in one process stayed distinct only
    by accident of sharing the counter, and a restarted process reusing
    a persisted archive re-issued the very same ids, interleaving
    unrelated conversations. Ids now mix per-process OS entropy with a
    process-local counter, so they are unique across teams, threads and
    restarts; pass ``rng`` to pin the sequence in tests.
    """
    if rng is None:
        rng = random.Random((_process_seed << 16) + instance_token())
    return f"analysis-{rng.getrandbits(48):012x}"


@dataclass
class AnalysisReport:
    """The team's final deliverable."""

    goal: str
    plan: Plan
    dashboard: Dashboard
    conversation_id: str
    message_count: int
    failures: list[str] = field(default_factory=list)


class DataAnalysisTeam:
    """Planner + chart agents + aggregator over one data source.

    ``run`` compiles each plan into an AWEL DAG and executes it; the
    team survives serving-layer flap because each agent's LLM calls ride
    the client's retry/failover/fallback machinery and a step that
    still fails is recorded in ``AnalysisReport.failures`` instead of
    killing the plan. Responses served by a degraded fallback model are
    surfaced there too.
    """

    def __init__(
        self,
        source: DataSource,
        llm_client,
        memory: Optional[AgentMemory] = None,
        measure: str = "amount",
        use_recall: bool = True,
        rng: Optional[random.Random] = None,
        planner_retries: int = 1,
    ) -> None:
        self.memory = memory if memory is not None else AgentMemory()
        self.source = source
        self.llm_client = llm_client
        self.planner_retries = planner_retries
        self._rng = rng
        self.planner = PlannerAgent(
            self.memory, llm_client, schema=source.describe_schema()
        )
        self.chart_agents = [
            ChartAgent(
                self.memory,
                llm_client,
                source,
                name=f"chart-agent-{index}",
                measure=measure,
            )
            for index in range(1, 4)
        ]
        self.forecaster = ForecastAgent(
            self.memory, llm_client, source, measure=measure
        )
        for agent in [self.planner, *self.chart_agents, self.forecaster]:
            agent.use_recall = use_recall
        self.aggregator = AggregatorAgent(self.memory, llm_client)

    def run(self, goal: str) -> AnalysisReport:
        """Execute the full Figure 3 flow for ``goal``.

        Synchronous wrapper over :meth:`arun`; safe to call from inside
        a running event loop (see :func:`repro.runtime.run_sync`).
        """
        return run_sync(self.arun(goal))

    async def arun(self, goal: str) -> AnalysisReport:
        """Async analysis run — concurrent teams share serving batches."""
        conversation_id = new_conversation_id(self._rng)
        degraded_before = getattr(self.llm_client, "degraded_serves", 0)
        with get_tracer().span(
            "agent.plan",
            _PLAN_LATENCY.labels,
            conversation=conversation_id,
            goal=goal,
        ) as span:
            report = await self._arun(goal, conversation_id)
            degraded = (
                getattr(self.llm_client, "degraded_serves", 0)
                - degraded_before
            )
            if degraded:
                report.failures.append(
                    f"degraded: {degraded} response(s) served by the "
                    "fallback model"
                )
            span.set_outcome("degraded" if report.failures else "ok")
        return report

    async def _arun(self, goal: str, conversation_id: str) -> AnalysisReport:
        plan_reply = await self._request_plan(goal, conversation_id)
        steps = plan_reply.metadata.get("plan")
        if not steps:
            raise AgentError("planner returned no plan")
        plan = Plan(
            goal=goal,
            steps=[_step_from_dict(item) for item in steps],
        )
        dag = compile_plan_dag(
            plan,
            conversation_id=conversation_id,
            chart_agents=self.chart_agents,
            aggregator=self.aggregator,
            forecaster=self.forecaster,
        )
        ctx = await WorkflowRunner(dag).run_async(plan)
        outcome = ctx.results["report"]
        return AnalysisReport(
            goal=goal,
            plan=plan,
            dashboard=outcome["dashboard"],
            conversation_id=conversation_id,
            message_count=len(self.memory.conversation(conversation_id)),
            failures=list(outcome["failures"]),
        )

    async def _request_plan(
        self, goal: str, conversation_id: str
    ) -> AgentMessage:
        """The planner exchange, re-sent on transient serving failures.

        The SMMF client retries and fails over *within* one call; this
        outer loop re-sends the whole planner request after the client
        gives up, so a plan started mid-outage still begins once a
        replacement worker registers.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return await self.planner.exchange(
                    goal, conversation_id=conversation_id
                )
            except ClientError as exc:
                resendable = (
                    getattr(exc, "status", None) in _RESENDABLE_STATUSES
                )
                if not resendable or attempt > self.planner_retries:
                    raise
                _PLAN_RETRIES.labels()()


def _step_from_dict(item: dict) -> PlanStep:
    return PlanStep(
        step=item["step"],
        action=item["action"],
        description=item.get("description", ""),
        # Deep-copied so the live plan never aliases the archived plan
        # metadata (mutating one must not rewrite the other).
        params=copy.deepcopy(item.get("params", {})),
    )
