"""chat2visualization: question in, rendered chart out.

The chart type is chosen from the question's analytical shape: share
questions get donuts, trends get area charts, comparisons get bars —
unless the user names a type explicitly ("as a pie chart").
"""

from __future__ import annotations

import re

from repro.apps.base import Application, AppResponse
from repro.datasources.base import DataSource, DataSourceError
from repro.llm.prompts import build_text2sql_prompt
from repro.smmf.client import ClientError, LLMClient
from repro.viz import ChartSpec, ChartType, render_ascii

_EXPLICIT_TYPE = re.compile(
    r"\b(?:as\s+an?\s+)?(bar|donut|pie|line|area|table)\s*(?:chart|graph)?\b",
    re.IGNORECASE,
)

_TREND_WORDS = ("month", "trend", "over time", "monthly", "year", "daily")
_SHARE_WORDS = ("share", "proportion", "breakdown", "percentage", "split")


class Chat2VizApp(Application):
    """Generated SQL runs without the analysis gate: the engine's binder
    is its check, so a hallucinated or ambiguous column fails the chart
    query with the engine's message."""

    name = "chat2viz"

    def __init__(
        self,
        client: LLMClient,
        source: DataSource,
        sql_model: str = "sql-coder",
    ) -> None:
        self._client = client
        self._source = source
        self._sql_model = sql_model

    def chat(self, text: str) -> AppResponse:
        chart_type = self._choose_type(text)
        question = _EXPLICIT_TYPE.sub("", text).strip()
        prompt = build_text2sql_prompt(self._source, question or text)
        try:
            sql = self._client.generate(
                self._sql_model, prompt, task="text2sql"
            )
        except ClientError as exc:
            return AppResponse(
                text=f"I could not build a chart query: {exc}",
                ok=False,
                metadata={"error": str(exc)},
            )
        try:
            result = self._source.query(sql)
        except DataSourceError as exc:
            return AppResponse(
                text=f"The chart query failed: {exc}",
                ok=False,
                metadata={"sql": sql, "error": str(exc)},
            )
        if not result.rows or len(result.columns) < 2:
            return AppResponse(
                text=(
                    "That question does not produce chartable (label, "
                    "value) data; try a grouped question like 'total "
                    "sales per region'."
                ),
                ok=False,
                metadata={"sql": sql},
            )
        try:
            spec = ChartSpec.from_rows(
                chart_type,
                title=text.strip().rstrip("?"),
                rows=result.rows,
                x_label=result.columns[0],
                y_label=result.columns[1],
                metadata={"sql": sql},
            )
        except Exception as exc:
            return AppResponse(
                text=f"Chart construction failed: {exc}",
                ok=False,
                metadata={"sql": sql, "error": str(exc)},
            )
        return AppResponse(
            text=render_ascii(spec),
            payload=spec,
            metadata={"sql": sql, "chart_type": spec.chart_type.value},
        )

    @staticmethod
    def _choose_type(text: str) -> ChartType:
        explicit = _EXPLICIT_TYPE.search(text)
        if explicit:
            return ChartType.from_name(explicit.group(1))
        lowered = text.lower()
        if any(word in lowered for word in _TREND_WORDS):
            return ChartType.AREA
        if any(word in lowered for word in _SHARE_WORDS):
            return ChartType.DONUT
        return ChartType.BAR
