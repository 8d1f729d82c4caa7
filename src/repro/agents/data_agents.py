"""The specialized data agents: chart and aggregator."""

from __future__ import annotations

from repro.agents.actions import ChartAction
from repro.agents.base import AgentError, ConversableAgent
from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.datasources.base import DataSource
from repro.llm.prompts import build_text2sql_prompt
from repro.smmf.client import ClientError
from repro.viz.dashboard import Dashboard
from repro.viz.spec import ChartSpec

#: dimension -> (question template, default measure phrase)
_DIMENSION_QUESTIONS = {
    "category": "What is the total {measure} per category?",
    "user": "What is the total {measure} per user name?",
    "month": "What is the total {measure} per month?",
    "region": "What is the total {measure} per region?",
    "segment": "What is the total {measure} per segment?",
}


class ChartAgent(ConversableAgent):
    """Produces one analysis chart for a plan step (Figure 3, area 4)."""

    def __init__(
        self,
        memory: AgentMemory,
        llm_client,
        source: DataSource,
        model: str = "sql-coder",
        name: str = "chart-agent",
        measure: str = "amount",
    ) -> None:
        super().__init__(
            name=name,
            profile="Generates a chart for one analysis dimension.",
            memory=memory,
            llm_client=llm_client,
            model=model,
        )
        self.source = source
        self.measure = measure
        self._action = ChartAction(source)

    async def generate_reply(self, message: AgentMessage) -> AgentMessage:
        """Ground the requested dimension in the source, ask the served
        SQL coder for the chart query, run it and shape the rows into
        a chart spec.

        The query runs inline: the engine is pure Python under one
        GIL, so a thread hop would add a handoff, not parallelism.
        """
        dimension = message.metadata.get("dimension")
        chart_type = message.metadata.get("chart_type", "bar")
        if dimension not in _DIMENSION_QUESTIONS:
            return self.reply_to(
                message,
                f"I do not know how to chart dimension {dimension!r}.",
                metadata={
                    "ok": False, "error": f"unknown dimension {dimension}"
                },
            )
        question = _DIMENSION_QUESTIONS[dimension].format(measure=self.measure)
        try:
            sql = await self.ask_llm(
                build_text2sql_prompt(self.source, question), task="text2sql"
            )
        except ClientError as exc:
            return self.reply_to(
                message,
                f"chart query generation failed: {exc}",
                metadata={"ok": False, "error": str(exc)},
            )
        result = self._action.run(
            sql=sql,
            chart_type=chart_type,
            title=f"Total {self.measure} by {dimension}",
        )
        if not result.ok:
            return self.reply_to(
                message,
                f"chart generation failed: {result.error}",
                metadata={"ok": False, "sql": sql, "error": result.error},
            )
        spec: ChartSpec = result.payload
        return self.reply_to(
            message,
            result.content,
            metadata={
                "ok": True,
                "sql": sql,
                "chart": spec.to_json(),
                "dimension": dimension,
                "chart_type": chart_type,
            },
        )


class AggregatorAgent(ConversableAgent):
    """Collects chart specs into the final dashboard (Figure 3, area 5).

    The request carries the chart specs, the report title and the plan
    steps that failed; the reply carries all three plus the narrative,
    so :func:`dashboard_of` rebuilds the dashboard from it.
    """

    def __init__(
        self,
        memory: AgentMemory,
        llm_client=None,
        name: str = "aggregator",
    ) -> None:
        super().__init__(
            name=name,
            profile="Assembles charts into one report for the front-end.",
            memory=memory,
            llm_client=llm_client,
            model="chat" if llm_client is not None else None,
            use_recall=False,
        )

    async def generate_reply(self, message: AgentMessage) -> AgentMessage:
        charts_json = message.metadata.get("charts", [])
        if not charts_json:
            raise AgentError("aggregator received no charts")
        dashboard = Dashboard(
            title=message.metadata.get("title", "Analysis report"),
            charts=[ChartSpec.from_json(text) for text in charts_json],
        )
        lines = [
            f"{spec.title}: {len(spec.points)} data points, "
            f"total {spec.total:g}"
            for spec in dashboard.charts
        ]
        dashboard.narrative = " ".join(lines)
        if self.llm_client is not None:
            try:
                dashboard.narrative = await self.ask_llm(
                    "Summarize the following result for the user:\n"
                    + "\n".join(lines)
                    + "\nSummary:",
                    task="summary",
                )
            except ClientError:
                pass  # fall back to the plain-line narrative
        return self.reply_to(
            message,
            dashboard.render_text(),
            metadata={
                "ok": True,
                "title": dashboard.title,
                "charts": [spec.to_json() for spec in dashboard.charts],
                "narrative": dashboard.narrative,
                "failures": list(message.metadata.get("failures", [])),
            },
        )


def dashboard_of(reply: AgentMessage) -> Dashboard:
    """The dashboard an :class:`AggregatorAgent` reply describes."""
    return Dashboard(
        title=reply.metadata["title"],
        charts=[ChartSpec.from_json(text) for text in reply.metadata["charts"]],
        narrative=reply.metadata["narrative"],
    )
