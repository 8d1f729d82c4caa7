"""Tests for the time-series forecasting agent (future-work item 1)."""

import asyncio
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import AgentMemory
from repro.agents.forecast import (
    ForecastAgent,
    SeasonalForecaster,
    naive_backtest,
)
from repro.agents.messages import AgentMessage
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import SqlCoderModel
from repro.smmf import ModelSpec, deploy


@pytest.fixture(scope="module")
def client():
    _controller, client = deploy(
        [ModelSpec("sql-coder", lambda: SqlCoderModel("sql-coder"))]
    )
    return client


class TestSeasonalForecaster:
    def test_recovers_linear_trend(self):
        series = [10.0 + 2.0 * t for t in range(24)]
        predictions = SeasonalForecaster(12).fit(series).predict(3)
        expected = [10.0 + 2.0 * t for t in range(24, 27)]
        assert predictions == pytest.approx(expected, abs=1e-6)

    def test_recovers_seasonality(self):
        season = [0, 5, -5, 0]
        series = [100.0 + season[t % 4] for t in range(16)]
        predictions = SeasonalForecaster(4).fit(series).predict(4)
        expected = [100.0 + season[t % 4] for t in range(16, 20)]
        assert predictions == pytest.approx(expected, abs=1e-6)

    def test_trend_plus_seasonality(self):
        season = [3, -3]
        series = [50.0 + 1.5 * t + season[t % 2] for t in range(20)]
        predictions = SeasonalForecaster(2).fit(series).predict(2)
        expected = [50.0 + 1.5 * t + season[t % 2] for t in range(20, 22)]
        assert predictions == pytest.approx(expected, abs=1e-6)

    def test_backtest_beats_naive_on_trending_series(self):
        series = [float(10 + 3 * t) for t in range(20)]
        forecaster = SeasonalForecaster(4)
        forecaster.fit(series)
        assert forecaster.backtest(series) < naive_backtest(series)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SeasonalForecaster(0)
        with pytest.raises(ValueError):
            SeasonalForecaster(4).fit([1.0])
        with pytest.raises(ValueError):
            SeasonalForecaster(4).predict(1)
        forecaster = SeasonalForecaster(4).fit([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            forecaster.predict(0)
        with pytest.raises(ValueError):
            forecaster.backtest([1.0, 2.0], holdout=3)

    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4),
            min_size=6,
            max_size=48,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_predictions_always_finite(self, series):
        predictions = SeasonalForecaster(12).fit(series).predict(6)
        assert len(predictions) == 6
        assert all(math.isfinite(v) for v in predictions)

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_constant_series_predicts_constant(self, level):
        series = [level] * 12
        predictions = SeasonalForecaster(4).fit(series).predict(4)
        assert predictions == pytest.approx([level] * 4, abs=1e-6)


class TestForecastAgent:
    @pytest.fixture
    def agent(self, client):
        source = EngineSource(build_sales_database(n_orders=600))
        return ForecastAgent(AgentMemory(), client, source)

    def test_forecast_from_sales_history(self, agent):
        _labels, series = asyncio.run(agent.history())
        result = agent.forecast(series, horizon=3)
        assert len(result.history) == 12
        assert len(result.predictions) == 3
        assert all(math.isfinite(v) for v in result.predictions)

    def test_reply_carries_chart_and_metrics(self, agent):
        message = AgentMessage(
            sender="user", recipient=agent.name,
            content="forecast revenue", metadata={"horizon": 2},
        )
        reply = asyncio.run(agent.generate_reply(message))
        assert reply.metadata["ok"], reply.content
        assert len(reply.metadata["predictions"]) == 2
        from repro.viz import ChartSpec

        chart = ChartSpec.from_json(reply.metadata["chart"])
        assert len(chart.points) == 12 + 2
        assert "Backtest MAE" in reply.content

    def test_too_little_history_handled(self, client):
        # January-only data: one monthly bucket.
        from repro.sqlengine import Database

        db = Database("tiny")
        db.execute(
            "CREATE TABLE orders (order_id INTEGER PRIMARY KEY, "
            "amount REAL, order_date DATE)"
        )
        db.insert_rows(
            "orders",
            [(i, 10.0 * i, f"2024-01-{i:02d}") for i in range(1, 5)],
        )
        agent = ForecastAgent(AgentMemory(), client, EngineSource(db))
        message = AgentMessage(
            sender="user", recipient=agent.name, content="forecast",
        )
        reply = asyncio.run(agent.generate_reply(message))
        assert not reply.metadata["ok"]
        assert "could not produce a forecast" in reply.content

    def test_seasonal_bump_reflected_in_prediction(self, client):
        # The sales generator has a strong Nov/Dec bump; forecasting
        # from 12 months should project January below December.
        source = EngineSource(build_sales_database(n_orders=2000))
        agent = ForecastAgent(AgentMemory(), client, source)
        _labels, series = asyncio.run(agent.history())
        result = agent.forecast(series, horizon=1)
        december = result.history[-1]
        january_prediction = result.predictions[0]
        assert january_prediction < december

    def test_a_reply_reads_the_history_once(self, client):
        """One forecast step is one text2sql call and one query."""

        class CountingClient:
            def __init__(self):
                self.calls = []

            async def agenerate(self, model, prompt, task=None):
                self.calls.append((model, task))
                return await client.agenerate(model, prompt, task=task)

        source = EngineSource(build_sales_database(n_orders=600))
        queries = []
        real_query = source.query

        def counting_query(sql, *args, **kwargs):
            queries.append(sql)
            return real_query(sql, *args, **kwargs)

        source.query = counting_query
        counting = CountingClient()
        agent = ForecastAgent(AgentMemory(), counting, source)
        message = AgentMessage(
            sender="user", recipient=agent.name, content="forecast",
            metadata={"horizon": 2},
        )
        reply = asyncio.run(agent.generate_reply(message))
        assert reply.metadata["ok"], reply.content
        assert counting.calls == [("sql-coder", "text2sql")]
        # Prompt building samples column values with DISTINCT queries;
        # the rest is the history query itself.
        history = [sql for sql in queries if "DISTINCT" not in sql]
        assert len(history) == 1
