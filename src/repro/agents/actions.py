"""Actions: the tools agents execute against the environment."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional

from repro.datasources.base import DataSource, DataSourceError
from repro.sqlengine import ResultSet
from repro.viz.spec import ChartSpec, ChartType


@dataclass
class ActionResult:
    """Outcome of one action execution."""

    ok: bool
    content: str
    payload: Any = None
    error: Optional[str] = None


class Action(abc.ABC):
    """A named, executable capability bound to a data source."""

    name = "action"

    @abc.abstractmethod
    def run(self, **kwargs: Any) -> ActionResult:
        """Execute the action."""


class ChartAction(Action):
    """Execute SQL and shape the rows into a chart spec."""

    name = "chart"

    def __init__(self, source: DataSource) -> None:
        self._source = source

    def run(
        self,
        sql: str = "",
        chart_type: str = "bar",
        title: str = "chart",
        **kwargs: Any,
    ) -> ActionResult:
        try:
            result: ResultSet = self._source.query(sql)
        except DataSourceError as exc:
            return ActionResult(False, f"SQL failed: {exc}", error=str(exc))
        if not result.rows:
            return ActionResult(
                False, "query returned no rows", error="empty result"
            )
        try:
            spec = ChartSpec.from_rows(
                ChartType.from_name(chart_type),
                title,
                result.rows,
                x_label=result.columns[0] if result.columns else "",
                y_label=result.columns[1] if len(result.columns) > 1 else "",
                metadata={"sql": sql},
            )
        except Exception as exc:  # VizError or value issues
            return ActionResult(False, f"chart failed: {exc}", error=str(exc))
        return ActionResult(
            True,
            f"built {chart_type} chart {title!r} with {len(spec.points)} points",
            payload=spec,
        )
