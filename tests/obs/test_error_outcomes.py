"""A raising block is one latency observation labelled as an error.

Each layer's latency histogram is also its event counter: its count per
label set is the number of events with that outcome. So a turn, an
operator, a request or a plan that raises is observed exactly once,
under its error label, and under no other.
"""

import pytest

from repro.agents import DataAnalysisTeam
from repro.apps.base import AppResponse, Application
from repro.awel import DAG, InputOperator, MapOperator, WorkflowRunner
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.server.middleware import TracingMiddleware
from repro.server.request import Request
from repro.server.router import Router


def only_series(registry, name):
    """``{rendered label set: count}`` of one histogram."""
    values = registry.histogram(name).snapshot()["values"]
    return {labels: series["count"] for labels, series in values.items()}


class _RaisingApp(Application):
    name = "raising"

    def chat(self, text: str) -> AppResponse:
        raise RuntimeError("app blew up")


def boom(_value):
    raise ValueError("operator blew up")


class _RaisingClient:
    """An LLM client whose every call fails with a non-resendable
    error, so the planner exchange (and the plan) raises."""

    def generate(self, model, prompt, task=None):
        raise RuntimeError("model unreachable")

    async def agenerate(self, model, prompt, task=None):
        raise RuntimeError("model unreachable")


@pytest.mark.parametrize("traced", [True, False])
class TestRaisingBlocks:
    @pytest.fixture(autouse=True)
    def _tracing(self, tracer, traced):
        tracer.enabled = traced

    def test_raising_app_turn(self, registry):
        with pytest.raises(RuntimeError, match="app blew up"):
            _RaisingApp().chat("hello")
        assert only_series(registry, "app_latency_ms") == {
            "app=raising,ok=error": 1
        }

    def test_raising_awel_operator(self, registry):
        with DAG("raising") as dag:
            source = InputOperator(name="source")
            source >> MapOperator(boom, name="boom")
        with pytest.raises(ValueError, match="operator blew up"):
            WorkflowRunner(dag).run(1)
        assert only_series(registry, "awel_operator_latency_ms") == {
            "mode=batch,status=ok,type=InputOperator": 1,
            "mode=batch,status=error,type=MapOperator": 1,
        }

    def test_raising_server_handler(self, registry):
        def handler(request: Request):
            raise RuntimeError("handler blew up")

        router = Router(middlewares=[TracingMiddleware()])
        router.add_route("GET", "/boom", handler)
        with pytest.raises(RuntimeError, match="handler blew up"):
            router.dispatch(Request("GET", "/boom"))
        assert only_series(registry, "server_latency_ms") == {
            "method=GET,path=/boom,status=error": 1
        }

    def test_raising_agent_plan(self, registry):
        source = EngineSource(build_sales_database(n_orders=20))
        team = DataAnalysisTeam(source, _RaisingClient(), use_recall=False)
        with pytest.raises(RuntimeError, match="model unreachable"):
            team.run("sales report by category")
        assert only_series(registry, "agent_plan_latency_ms") == {
            "status=error": 1
        }
