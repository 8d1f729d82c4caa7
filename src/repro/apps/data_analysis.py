"""Generative data analysis: the Figure 3 flagship application."""

from __future__ import annotations

from typing import Optional

from repro.agents.memory import AgentMemory
from repro.agents.team import DataAnalysisTeam
from repro.apps.base import Application, AppResponse
from repro.datasources.base import DataSource
from repro.smmf.client import LLMClient


class GenerativeAnalysisApp(Application):
    """Run the multi-agent analysis flow and return the dashboard."""

    name = "data_analysis"

    def __init__(
        self,
        client: LLMClient,
        source: DataSource,
        memory: Optional[AgentMemory] = None,
        measure: str = "amount",
    ) -> None:
        self._team = DataAnalysisTeam(
            source, client, memory=memory, measure=measure
        )
        self.last_report = None

    @property
    def memory(self) -> AgentMemory:
        return self._team.memory

    def chat(self, text: str) -> AppResponse:
        report = self._team.run(text)
        self.last_report = report
        ok = not report.failures
        return AppResponse(
            text=report.dashboard.render_text(),
            ok=ok,
            payload=report,
            metadata={
                "plan_steps": len(report.plan.steps),
                "charts": len(report.dashboard.charts),
                "messages": report.message_count,
                "failures": report.failures,
            },
        )

    def alter_chart(self, title: str, chart_type: str) -> AppResponse:
        """The Figure 3 area-6 interaction: swap a chart's type."""
        if self.last_report is None:
            return AppResponse(
                text="Run an analysis before altering charts.", ok=False
            )
        spec = self.last_report.dashboard.alter_chart_type(title, chart_type)
        return AppResponse(
            text=self.last_report.dashboard.render_text(),
            payload=spec,
            metadata={"altered": title, "chart_type": chart_type},
        )
