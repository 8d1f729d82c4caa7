"""Generative analysis plans under worker flapping: completion rate.

The claim worth certifying: with the resilience layer armed, multi-hop
agent plans (planner → one chart agent exchange per step →
aggregator) keep **at least a 99% completion rate** while
the sql-coder pool flaps on a 20% duty cycle — down windows degrade
SQL generation to the reserve fallback model instead of losing the
plan — whereas the same team with retries off and no fallback loses
every plan whose chart hops land inside a down window.

Methodology: both stacks replay the same deterministic fault timeline
(:mod:`repro.resilience.chaos`) against the controller's logical clock.
Each request through the serving stack ticks the clock one 100ms step
and fires every chaos event that has come due, and retry backoff
advances the same clock. Every plan starts from empty caches: a cache
hit never reaches the server, so it would not tick the clock, and the
plans would stop walking the fault timeline. The counts are not exactly
reproducible: a plan's chart hops run concurrently, so which request a
tick (and so a chaos event) lands on varies from run to run (baseline
30–32 of 40 plans completed, resilient 6–11 degraded responses over 8
runs each); the gates hold on every run seen. The only wall-clock
measurement is the resilient run's plans/sec. Numbers land in
``BENCH_agents.json`` at the repo root.
"""

import json
import pathlib
import random

from repro.agents import AgentError, AgentMemory, DataAnalysisTeam
from repro.cache.manager import get_cache_manager
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import ChatModel, PlannerModel, SqlCoderModel
from repro.resilience import (
    BreakerConfig,
    ChaosInjector,
    ChaosSchedule,
    ResilienceConfig,
    RetryConfig,
    flap_schedule,
)
from repro.runtime import perf_clock
from repro.smmf.api_server import ApiServer
from repro.smmf.client import LLMClient
from repro.smmf.controller import ModelController
from repro.smmf.worker import ModelWorker

GOAL = "sales report from three dimensions"
PLANS = 40
STEP_S = 0.1
FLAP_PERIOD_S = 10.0
DOWN_FRACTION = 0.2
FLAP_UNTIL_S = 120.0
OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_agents.json"
)


class TickingServer:
    """Advance the logical clock (and due chaos events) per request."""

    def __init__(self, server, controller, injector):
        self._server = server
        self._controller = controller
        self._injector = injector

    def _tick(self):
        self._injector.advance_to(
            self._controller.advance_clock(STEP_S)
        )

    def handle(self, request):
        self._tick()
        return self._server.handle(request)

    async def ahandle(self, request):
        self._tick()
        return await self._server.ahandle(request)

    def __getattr__(self, name):
        return getattr(self._server, name)


def build_team(resilient):
    """One agents-over-serving stack bound to the shared flap script.

    A single sql-coder replica flaps down 20% of every period, so down
    windows are total outages for the plan's chart hops; the reserve
    pool exists in both stacks, but only the resilient one has the
    fallback route that can reach it. The baseline runs with retries
    off and no fallback (same breakers and probes).
    """
    resilience = ResilienceConfig(
        retry=(
            RetryConfig(max_attempts=3, base_delay_s=0.5, jitter=0.0)
            if resilient
            else RetryConfig(max_attempts=1)
        ),
        breaker=BreakerConfig(failure_threshold=3, reset_timeout_s=2.0),
        probe_interval_s=1.0,
        fallback_model="reserve" if resilient else None,
    )
    controller = ModelController(resilience=resilience)
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
    controller.register_worker(
        ModelWorker(SqlCoderModel("reserve"), latency_ms=0.0),
        latency_ms=0.0,
    )
    sql_workers = [r.worker for r in controller.workers("sql-coder")]
    injector = ChaosInjector(
        sql_workers,
        flap_schedule(
            worker_count=1,
            period_s=FLAP_PERIOD_S,
            down_fraction=DOWN_FRACTION,
            until_s=FLAP_UNTIL_S,
        ),
    )
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
    # Recall off: with it on, plan N would replay plan 1's archived
    # replies from memory instead of exercising the serving stack.
    team = DataAnalysisTeam(
        source, client, memory=AgentMemory(), use_recall=False
    )
    return team, client


def drive(team, client):
    """Run the plan workload; returns the stack's scorecard."""
    completed = failed = degraded_plans = 0
    degraded_before = client.degraded_serves
    started = perf_clock()
    for _ in range(PLANS):
        before = client.degraded_serves
        get_cache_manager().clear()
        try:
            report = team.run(GOAL)
        except AgentError:
            failed += 1
            continue
        # A plan only counts as complete when every chart landed; a
        # partial dashboard (a step lost to a down window) is a miss.
        if len(report.dashboard.charts) < 3:
            failed += 1
            continue
        completed += 1
        if client.degraded_serves > before:
            degraded_plans += 1
    elapsed = perf_clock() - started
    return {
        "completed": completed,
        "failed": failed,
        "degraded_plans": degraded_plans,
        "degraded_responses": client.degraded_serves - degraded_before,
        "completion_rate": completed / PLANS,
        "plans_per_s": PLANS / elapsed if elapsed > 0 else 0.0,
    }


def test_agent_plans_under_flapping():
    baseline_team, baseline_client = build_team(resilient=False)
    baseline = drive(baseline_team, baseline_client)

    resilient_team, resilient_client = build_team(resilient=True)
    resilient = drive(resilient_team, resilient_client)

    payload = {
        "workload": {
            "plans": PLANS,
            "goal": GOAL,
            "sql_replicas": 1,
            "step_s": STEP_S,
            "flap_period_s": FLAP_PERIOD_S,
            "down_fraction": DOWN_FRACTION,
        },
        "baseline": {
            **baseline,
            "completion_rate": round(baseline["completion_rate"], 4),
            "plans_per_s": round(baseline["plans_per_s"], 2),
        },
        "resilient": {
            **resilient,
            "completion_rate": round(resilient["completion_rate"], 4),
            "plans_per_s": round(resilient["plans_per_s"], 2),
        },
    }
    OUTPUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    print("\nagent plan completion under 20% sql-coder flapping")
    print(f"  baseline  : {baseline['completion_rate']:6.1%} of "
          f"{PLANS} plans, {baseline['failed']} lost")
    print(f"  resilient : {resilient['completion_rate']:6.1%}, "
          f"{resilient['degraded_plans']} degraded plan(s), "
          f"{resilient['plans_per_s']:.1f} plans/s")
    print(f"  written to: {OUTPUT.name}")

    assert resilient["completion_rate"] >= 0.99, (
        f"resilient team completed only "
        f"{resilient['completion_rate']:.1%} of plans under flapping "
        f"(need >= 99%)"
    )
    assert baseline["completion_rate"] < resilient["completion_rate"], (
        "baseline matched the resilient team — the flap windows "
        "exercised nothing"
    )
    assert resilient["degraded_plans"] > 0, (
        "no degraded plans — the fallback route never engaged"
    )
    assert resilient["plans_per_s"] > 0.0
