"""Chaos acceptance: multi-hop agent plans under scripted worker faults.

Every scenario is fully deterministic — faults are a data schedule
(:mod:`repro.resilience.chaos`) replayed against the controller's
logical clock. No real sleeps and no unseeded randomness anywhere:
each request through the serving stack ticks the clock one step and
fires every chaos event that has come due, and client retry backoff
"sleeps" by advancing the same clock (which is also what drives the
injector and the controller's health probes).
"""

import random

import pytest

from repro.agents import AgentError, AgentMemory, DataAnalysisTeam
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import ChatModel, PlannerModel, SqlCoderModel
from repro.resilience import (
    BreakerConfig,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    ResilienceConfig,
    RetryConfig,
)
from repro.resilience.chaos import KILL, RESTART
from repro.smmf.api_server import ApiServer
from repro.smmf.client import LLMClient
from repro.smmf.controller import ModelController
from repro.smmf.worker import ModelWorker

GOAL = "sales report from three dimensions"
STEP_S = 0.1


class TickingServer:
    """ApiServer wrapper that advances logical time per request.

    Each ``handle``/``ahandle`` advances the controller clock one step
    and applies every chaos event that has come due, so the fault
    timeline unfolds as a deterministic side effect of the plan's own
    traffic — mid-plan kills land exactly between agent hops.
    """

    def __init__(self, server, controller, injector, step_s=STEP_S):
        self._server = server
        self._controller = controller
        self._injector = injector
        self._step_s = step_s

    def _tick(self):
        now = self._controller.advance_clock(self._step_s)
        self._injector.advance_to(now)

    def handle(self, request):
        self._tick()
        return self._server.handle(request)

    async def ahandle(self, request):
        self._tick()
        return await self._server.ahandle(request)

    def __getattr__(self, name):
        return getattr(self._server, name)


def resilience_config(fallback=None):
    return ResilienceConfig(
        retry=RetryConfig(
            max_attempts=3, base_delay_s=0.5, jitter=0.0
        ),
        breaker=BreakerConfig(failure_threshold=3, reset_timeout_s=2.0),
        probe_interval_s=1.0,
        fallback_model=fallback,
    )


def build_team(
    events,
    resilience=None,
    sql_replicas=2,
    reserve=False,
):
    """One full agents-over-serving stack with a bound fault script.

    The chaos schedule targets only the ``sql-coder`` replicas — the
    planner and chat workers stay up, so every scenario isolates how a
    plan's SQL-generation hops survive (or don't) worker flap.
    """
    controller = ModelController(resilience=resilience)
    for _ in range(sql_replicas):
        controller.register_worker(
            ModelWorker(SqlCoderModel("sql-coder"), latency_ms=0.0),
            latency_ms=0.0,
        )
    controller.register_worker(
        ModelWorker(PlannerModel("planner"), latency_ms=0.0),
        latency_ms=0.0,
    )
    controller.register_worker(
        ModelWorker(ChatModel("chat"), latency_ms=0.0),
        latency_ms=0.0,
    )
    if reserve:
        controller.register_worker(
            ModelWorker(SqlCoderModel("reserve"), latency_ms=0.0),
            latency_ms=0.0,
        )
    sql_workers = [r.worker for r in controller.workers("sql-coder")]
    injector = ChaosInjector(sql_workers, ChaosSchedule(events))
    server = TickingServer(ApiServer(controller), controller, injector)
    client = LLMClient(
        server,
        resilience=resilience,
        sleep=lambda s: injector.advance_to(
            controller.advance_clock(s)
        ),
        rng=random.Random(0),
    )
    source = EngineSource(build_sales_database(n_orders=120))
    team = DataAnalysisTeam(source, client, memory=AgentMemory())
    return team, controller, injector, client


class TestPlanSurvivesChaos:
    def test_mid_plan_kill_fails_over_to_replica(self):
        """Killing one of two sql-coder replicas mid-plan is invisible:
        the controller sweep routes every chart step to the survivor."""
        team, _controller, injector, _client = build_team(
            [ChaosEvent(0.05, 0, KILL)],
            resilience=resilience_config(),
        )
        report = team.run(GOAL)
        assert [e.action for e in injector.applied] == [KILL]
        assert len(report.dashboard.charts) == 3
        assert report.failures == []
        assert report.message_count == len(
            team.memory.conversation(report.conversation_id)
        )

    def test_kill_restart_crossed_by_retry_backoff(self):
        """Single replica, killed mid-plan and restarted 2 logical
        seconds later. The client's 503 retry backoff advances the
        clock past the restart, the probe re-admits the worker, and the
        retried hop succeeds — the plan completes clean."""
        team, controller, injector, _client = build_team(
            [ChaosEvent(0.05, 0, KILL), ChaosEvent(2.0, 0, RESTART)],
            resilience=resilience_config(),
            sql_replicas=1,
        )
        report = team.run(GOAL)
        assert [e.action for e in injector.applied] == [KILL, RESTART]
        assert controller.clock >= 2.0
        assert len(report.dashboard.charts) == 3
        assert report.failures == []

    def test_total_outage_degrades_to_fallback_and_is_recorded(self):
        """With every sql-coder replica down for good, chart SQL is
        served by the reserve fallback model; the report still carries
        all three charts but the degradation lands in ``failures``."""
        team, _controller, _injector, client = build_team(
            [ChaosEvent(0.05, 0, KILL)],
            resilience=resilience_config(fallback="reserve"),
            sql_replicas=1,
            reserve=True,
        )
        report = team.run(GOAL)
        assert len(report.dashboard.charts) == 3
        assert client.degraded_serves == 3
        assert report.failures == [
            "degraded: 3 response(s) served by the fallback model"
        ]

    def test_chaos_off_baseline_loses_the_plan(self):
        """The same outage without a fallback route is fatal: retries
        cannot revive the only replica, every chart hop 503s, no step
        yields a chart, the plan errors out."""
        team, _controller, _injector, _client = build_team(
            [ChaosEvent(0.05, 0, KILL)],
            resilience=None,
            sql_replicas=1,
        )
        with pytest.raises(AgentError, match="no charts"):
            team.run(GOAL)

    def test_rerun_is_deterministic(self):
        """Two identical chaos runs produce identical outcomes — the
        acceptance guarantee that there is no hidden wall-clock or
        unseeded randomness in the fault path."""

        def once():
            team, _controller, _injector, client = build_team(
                [ChaosEvent(0.05, 0, KILL)],
                resilience=resilience_config(fallback="reserve"),
                sql_replicas=1,
                reserve=True,
            )
            report = team.run(GOAL)
            return (
                len(report.dashboard.charts),
                tuple(report.failures),
                client.degraded_serves,
            )

        assert once() == once()
