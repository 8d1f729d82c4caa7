"""The fault-injection harness and the acceptance chaos scenario.

Chaos here is a *data* problem: schedules are sorted event lists and
time is the controller's logical clock, so every run in this module
replays an identical fault timeline — no randomness, no sleeps.
"""

import pytest

from repro.llm.base import GenerationRequest
from repro.resilience import (
    BreakerConfig,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    ResilienceConfig,
    RetryConfig,
    flap_schedule,
)
from repro.resilience.chaos import FAIL_NEXT, KILL, LATENCY, RESTART
from repro.smmf.controller import ModelController
from repro.smmf.worker import ModelWorker

from tests.resilience.conftest import EchoModel


class TestChaosEvents:
    def test_rejects_unknown_action_and_negative_time(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosEvent(1.0, 0, "explode")
        with pytest.raises(ValueError, match="non-negative"):
            ChaosEvent(-1.0, 0, KILL)

    def test_schedule_sorts_and_pops_in_order(self):
        schedule = ChaosSchedule(
            [
                ChaosEvent(2.0, 0, RESTART),
                ChaosEvent(1.0, 0, KILL),
                ChaosEvent(3.0, 1, KILL),
            ]
        )
        assert schedule.remaining == 3
        assert schedule.due(0.5) == []
        fired = schedule.due(2.0)
        assert [(e.at, e.action) for e in fired] == [
            (1.0, KILL),
            (2.0, RESTART),
        ]
        assert schedule.remaining == 1
        # The cursor never re-fires consumed events.
        assert schedule.due(2.0) == []
        schedule.reset()
        assert schedule.remaining == 3

    def test_flap_schedule_staggers_phases(self):
        schedule = flap_schedule(
            worker_count=3, period_s=10.0, down_fraction=0.2, until_s=10.0
        )
        kills = sorted(
            (e.at, e.worker_index)
            for e in schedule.events
            if e.action == KILL
        )
        assert kills == [(0.0, 0), (10.0 / 3, 1), (20.0 / 3, 2)]
        # Every kill has a matching restart one down-window later.
        restarts = {
            (e.at, e.worker_index)
            for e in schedule.events
            if e.action == RESTART
        }
        for at, index in kills:
            assert (at + 2.0, index) in restarts

    def test_flap_schedule_without_stagger_is_a_storm(self):
        schedule = flap_schedule(
            worker_count=3,
            period_s=10.0,
            down_fraction=0.2,
            until_s=10.0,
            stagger=False,
        )
        kill_times = {
            e.at for e in schedule.events if e.action == KILL
        }
        assert kill_times == {0.0}  # all three drop simultaneously

    def test_flap_schedule_validates_inputs(self):
        with pytest.raises(ValueError):
            flap_schedule(0, 10.0, 0.2, 10.0)
        with pytest.raises(ValueError):
            flap_schedule(3, 10.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            flap_schedule(3, 0.0, 0.2, 10.0)


class TestChaosInjector:
    def test_applies_each_action_kind(self):
        worker = ModelWorker(EchoModel(), latency_ms=5.0)
        injector = ChaosInjector(
            [worker],
            ChaosSchedule(
                [
                    ChaosEvent(1.0, 0, KILL),
                    ChaosEvent(2.0, 0, RESTART),
                    ChaosEvent(3.0, 0, FAIL_NEXT, value=2),
                    ChaosEvent(4.0, 0, LATENCY, value=50.0),
                ]
            ),
        )
        injector.advance_to(1.0)
        assert worker.alive is False
        injector.advance_to(2.0)
        assert worker.alive is True
        injector.advance_to(4.0)
        assert worker.fail_next == 2
        assert worker.latency_ms == 50.0
        assert len(injector.applied) == 4

    def test_identical_schedules_replay_identically(self):
        def run():
            worker = ModelWorker(EchoModel(), latency_ms=0.0)
            schedule = flap_schedule(1, 4.0, 0.25, 12.0)
            injector = ChaosInjector([worker], schedule)
            timeline = []
            for step in range(120):
                injector.advance_to(step * 0.1)
                timeline.append(worker.alive)
            return timeline, [
                (e.at, e.action) for e in injector.applied
            ]

        assert run() == run()


class TestAcceptanceScenario:
    """ISSUE acceptance: 3 replicas, scripted 20% flap, >=99% success,
    and every killed-then-restarted worker serves again."""

    def test_three_replicas_survive_twenty_percent_flap(self, registry):
        resilience = ResilienceConfig(
            retry=RetryConfig(
                max_attempts=3, base_delay_s=0.05, jitter=0.0
            ),
            breaker=BreakerConfig(
                failure_threshold=2, reset_timeout_s=2.0
            ),
            probe_interval_s=1.0,
        )
        controller = ModelController(resilience=resilience)
        for _replica in range(3):
            controller.register_worker(
                ModelWorker(EchoModel(), latency_ms=0.0), latency_ms=0.0
            )
        workers = [r.worker for r in controller.workers("chat")]
        # 20% of every 10s period down, phases rolling across the pool;
        # sprinkle crash injections so the breaker path runs too.
        events = list(
            flap_schedule(
                worker_count=3,
                period_s=10.0,
                down_fraction=0.2,
                until_s=30.0,
            ).events
        )
        events += [
            ChaosEvent(8.0, 1, FAIL_NEXT, value=1),
            ChaosEvent(15.0, 2, FAIL_NEXT, value=1),
            ChaosEvent(25.0, 0, FAIL_NEXT, value=1),
        ]
        injector = ChaosInjector(workers, ChaosSchedule(events))

        successes = failures = 0
        total_steps = 300
        for step in range(total_steps):
            now = controller.advance_clock(0.1)
            injector.advance_to(now)
            try:
                response = controller.generate(
                    "chat", GenerationRequest(f"q{step}", task="chat")
                )
                assert response.text == f"echo: q{step}"
                successes += 1
            except Exception:
                failures += 1
        assert injector.schedule.remaining == 0
        assert successes / total_steps >= 0.99
        # The injected crashes actually exercised failover.
        assert sum(worker.failed for worker in workers) >= 3
        # After the storm settles plus one probe interval, the whole
        # pool serves again.
        controller.advance_clock(resilience.probe_interval_s)
        for row in controller.health_snapshot():
            assert row["alive"] is True
            assert row["healthy"] is True
        before = [worker.served for worker in workers]
        for step in range(6):
            controller.generate(
                "chat", GenerationRequest(f"tail{step}", task="chat")
            )
        assert all(
            worker.served > count
            for worker, count in zip(workers, before)
        )

    def test_restarted_flapper_rejoins_within_one_probe_interval(self):
        resilience = ResilienceConfig(
            retry=RetryConfig(max_attempts=2, base_delay_s=0.01,
                              jitter=0.0),
            breaker=BreakerConfig(failure_threshold=1,
                                  reset_timeout_s=60.0),
            probe_interval_s=1.0,
        )
        controller = ModelController(resilience=resilience)
        for _replica in range(2):
            controller.register_worker(
                ModelWorker(EchoModel(), latency_ms=0.0), latency_ms=0.0
            )
        flapper = controller.workers("chat")[0].worker
        injector = ChaosInjector(
            [flapper],
            ChaosSchedule(
                [
                    ChaosEvent(0.0, 0, FAIL_NEXT, value=1),
                    ChaosEvent(0.5, 0, KILL),
                    ChaosEvent(1.0, 0, RESTART),
                ]
            ),
        )
        injector.advance_to(controller.advance_clock(0.1))
        # The crash opens the breaker (threshold 1); the reset timeout
        # is a deliberately hopeless 60s, so only a health probe can
        # bring the flapper back.
        controller.generate("chat", GenerationRequest("p", task="chat"))
        assert flapper.failed == 1
        injector.advance_to(controller.advance_clock(1.0))  # kill+restart
        restart_at = controller.clock
        controller.advance_clock(resilience.probe_interval_s)
        served_before = flapper.served
        for step in range(2):
            controller.generate(
                "chat", GenerationRequest(f"r{step}", task="chat")
            )
        assert flapper.served == served_before + 1
        assert controller.clock - restart_at <= (
            resilience.probe_interval_s + 0.01
        )
