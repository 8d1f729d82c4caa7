"""Time-series forecasting agent (paper §4 future work, item 1).

"Introducing powerful agents providing more powerful abilities, such as
time series predictions based on historical data."

:class:`SeasonalForecaster` fits trend + seasonal components with plain
least squares; :class:`ForecastAgent` pulls a monthly measure series
from the data source (through the same Text-to-SQL path every other
agent uses), fits the forecaster, and replies with the projection as an
area chart plus a backtest quality note.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.agents.base import AgentError, ConversableAgent
from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.datasources.base import DataSource, DataSourceError
from repro.llm.prompts import build_text2sql_prompt
from repro.smmf.client import ClientError
from repro.viz.spec import ChartSpec, ChartType, DataPoint


@dataclass
class ForecastResult:
    history: list[float]
    predictions: list[float]
    backtest_mae: float
    naive_mae: float

    @property
    def beats_naive(self) -> bool:
        return self.backtest_mae <= self.naive_mae


class SeasonalForecaster:
    """Linear trend + additive seasonal components.

    Fit ``y_t = a + b*t + s[t mod period]`` jointly by ordinary least
    squares (intercept, trend, and phase dummies in one design matrix)
    — a two-stage fit would let correlated seasonality bias the trend.
    """

    def __init__(self, period: int = 12) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self._beta: Optional[np.ndarray] = None
        self._length = 0

    def _design(self, steps: np.ndarray) -> np.ndarray:
        columns = [np.ones_like(steps), steps]
        # Phase dummies with phase 0 as the reference level.
        for phase in range(1, self.period):
            columns.append(
                (steps.astype(int) % self.period == phase).astype(float)
            )
        return np.column_stack(columns)

    def fit(self, series: list[float]) -> "SeasonalForecaster":
        if len(series) < 2:
            raise ValueError("need at least two observations")
        y = np.asarray(series, dtype=np.float64)
        steps = np.arange(len(y), dtype=np.float64)
        design = self._design(steps)
        self._beta, *_rest = np.linalg.lstsq(design, y, rcond=None)
        self._length = len(y)
        return self

    def predict(self, horizon: int) -> list[float]:
        if self._beta is None:
            raise ValueError("fit() before predict()")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        steps = np.arange(
            self._length, self._length + horizon, dtype=np.float64
        )
        predictions = self._design(steps) @ self._beta
        return [float(v) for v in predictions]

    def backtest(self, series: list[float], holdout: int = 3) -> float:
        """Mean absolute error forecasting the last ``holdout`` points."""
        if len(series) <= holdout + 1:
            raise ValueError("series too short for the holdout")
        train, test = series[:-holdout], series[-holdout:]
        predictions = SeasonalForecaster(self.period).fit(train).predict(
            holdout
        )
        return float(
            np.mean(np.abs(np.asarray(predictions) - np.asarray(test)))
        )


def naive_backtest(series: list[float], holdout: int = 3) -> float:
    """MAE of the last-value-carried-forward baseline."""
    train, test = series[:-holdout], series[-holdout:]
    last = train[-1]
    return float(np.mean(np.abs(np.asarray(test) - last)))


class ForecastAgent(ConversableAgent):
    """Project a monthly measure forward (the future-work agent)."""

    def __init__(
        self,
        memory: AgentMemory,
        llm_client,
        source: DataSource,
        model: str = "sql-coder",
        name: str = "forecaster",
        measure: str = "amount",
        period: int = 12,
    ) -> None:
        super().__init__(
            name=name,
            profile="Predicts future values of a measure from history.",
            memory=memory,
            llm_client=llm_client,
            model=model,
        )
        self.source = source
        self.measure = measure
        self.period = period

    async def generate_reply(self, message: AgentMessage) -> AgentMessage:
        horizon = int(message.metadata.get("horizon", 3))
        try:
            labels, series = await self.history()
            result = self.forecast(series, horizon)
        except (AgentError, ClientError, DataSourceError, ValueError) as exc:
            return self.reply_to(
                message,
                f"I could not produce a forecast: {exc}",
                metadata={"ok": False, "error": str(exc)},
            )
        points = [
            DataPoint(label, value) for label, value in zip(labels, series)
        ]
        points += [
            DataPoint(f"+{step}", value)
            for step, value in enumerate(result.predictions, start=1)
        ]
        chart = ChartSpec(
            chart_type=ChartType.AREA,
            title=f"{self.measure} forecast (+{horizon})",
            points=points,
            metadata={"forecast_from": len(series)},
        )
        quality = (
            "beats the naive baseline"
            if result.beats_naive
            else "does not beat the naive baseline"
        )
        text = (
            f"Projected {self.measure} for the next {horizon} period(s): "
            + ", ".join(f"{v:,.0f}" for v in result.predictions)
            + f". Backtest MAE {result.backtest_mae:,.0f} ({quality})."
        )
        return self.reply_to(
            message,
            text,
            metadata={
                "ok": True,
                "chart": chart.to_json(),
                "predictions": result.predictions,
                "backtest_mae": result.backtest_mae,
                "naive_mae": result.naive_mae,
            },
        )

    def forecast(self, series: list[float], horizon: int = 3) -> ForecastResult:
        """Fit ``series`` and project it ``horizon`` periods ahead."""
        forecaster = SeasonalForecaster(self.period).fit(series)
        holdout = min(3, max(1, len(series) - 2))
        return ForecastResult(
            history=series,
            predictions=forecaster.predict(horizon),
            backtest_mae=forecaster.backtest(series, holdout=holdout),
            naive_mae=naive_backtest(series, holdout=holdout),
        )

    async def history(self) -> tuple[list[str], list[float]]:
        """The monthly measure series: month labels and values."""
        question = f"What is the total {self.measure} per month?"
        sql = await self.ask_llm(
            build_text2sql_prompt(self.source, question), task="text2sql"
        )
        result = self.source.query(sql)
        if len(result.rows) < 4:
            raise AgentError(
                f"only {len(result.rows)} monthly points; need >= 4"
            )
        labels = [str(row[0]) for row in result.rows]
        series = [float(row[1]) for row in result.rows]
        return labels, series
