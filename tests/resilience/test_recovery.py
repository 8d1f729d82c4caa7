"""Recovery paths: restart re-admission, health probes, degradation.

The regression at the heart of this suite: a worker that crashed once
stayed out of rotation *forever* — ``restart()`` brought the process
back but nothing ever re-admitted the registry record. Breaker
half-opening and clock-driven health probes bring it back now.
"""

import pytest

from repro.llm.base import GenerationRequest
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    BreakerConfig,
    HealthMonitor,
    ResilienceConfig,
    RetryConfig,
)
from repro.smmf.controller import ModelController, SmmfError
from repro.smmf.registry import ModelRegistry
from repro.smmf.worker import ModelWorker

from tests.resilience.conftest import EchoModel


def fast_resilience(**overrides):
    """A config with tiny deterministic delays."""
    defaults = dict(
        retry=RetryConfig(max_attempts=2, base_delay_s=0.01, jitter=0.0),
        breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=5.0),
        probe_interval_s=1.0,
    )
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


def make_controller(replicas=2, resilience=None, model_name="chat"):
    controller = ModelController(resilience=resilience)
    for _replica in range(replicas):
        controller.register_worker(
            ModelWorker(EchoModel(model_name), latency_ms=0.0),
            latency_ms=0.0,
        )
    return controller


def ask(controller, prompt="hello", model="chat"):
    return controller.generate(
        model, GenerationRequest(prompt, task="chat")
    )


class TestRestartReadmission:
    """Kill or crash -> exhaust failover -> recover -> the next request
    succeeds: a health probe re-admits whatever answers it."""

    def test_restarted_worker_serves_again(self):
        controller = make_controller(replicas=2, resilience=fast_resilience())
        workers = [r.worker for r in controller.workers("chat")]
        # Two crashes each: both retry rounds fail and both breakers
        # trip (threshold 2).
        for worker in workers:
            worker.inject_failures(2)
        with pytest.raises(SmmfError, match="all replicas"):
            ask(controller)
        assert all(
            controller.breakers.state(w.worker_id) == OPEN for w in workers
        )
        # The workers never died (crash injection, not kill): the next
        # request's retry backoff runs the probes that re-admit them.
        response = ask(controller, "after recovery")
        assert response.text == "echo: after recovery"

    def test_killed_then_restarted_worker_rejoins(self):
        controller = make_controller(replicas=2, resilience=fast_resilience())
        workers = [r.worker for r in controller.workers("chat")]
        for worker in workers:
            worker.inject_failures(2)
        with pytest.raises(SmmfError):
            ask(controller)
        # One replica's process dies for good; the other restarts.
        workers[0].kill()
        workers[1].kill()
        workers[1].restart()
        response = ask(controller, "back up")
        assert response.text == "echo: back up"
        assert workers[1].served == 1
        assert controller.breakers.state(workers[0].worker_id) == OPEN
        assert controller.breakers.state(workers[1].worker_id) == CLOSED

    def test_dead_workers_are_not_readmitted(self):
        controller = make_controller(replicas=2, resilience=fast_resilience())
        for record in controller.workers("chat"):
            record.worker.inject_failures(2)
        with pytest.raises(SmmfError):
            ask(controller)
        for record in controller.workers("chat"):
            record.worker.kill()
        # alive is False: every probe fails, nothing is re-admitted.
        with pytest.raises(SmmfError, match="all replicas"):
            ask(controller)

    def test_swept_workers_need_a_heartbeat_not_optimism(self):
        controller = ModelController(heartbeat_timeout=10.0)
        worker = ModelWorker(EchoModel(), latency_ms=0.0)
        controller.register_worker(worker, latency_ms=0.0)
        controller.advance_clock(11.0)
        assert controller.health_sweep() == [worker.worker_id]
        record = controller.workers("chat")[0]
        assert record.down_reason == "sweep"
        # Silence is not re-admitted on hope: the request's own retry
        # backoff probes the worker, and the passed probe is the
        # heartbeat that brings it back.
        assert ask(controller).text == "echo: hello"
        assert record.healthy
        assert record.down_reason is None


class TestBreakerRouting:
    def test_consecutive_crashes_open_the_breaker(self):
        controller = make_controller(replicas=2, resilience=fast_resilience())
        flaky = controller.workers("chat")[0].worker
        # Three armed faults: the second crash trips the breaker
        # (threshold 2) and the third keeps the liveness probe failing,
        # so the breaker genuinely stays open.
        flaky.inject_failures(3)
        assert ask(controller, "one").text == "echo: one"
        assert ask(controller, "two").text == "echo: two"
        assert controller.breakers.state(flaky.worker_id) == OPEN
        # With the breaker open the flaky worker is skipped entirely.
        before = flaky.failed
        assert ask(controller, "three").text == "echo: three"
        assert flaky.failed == before

    def test_probe_half_opens_and_traffic_closes(self):
        controller = make_controller(replicas=2, resilience=fast_resilience())
        flaky = controller.workers("chat")[0].worker
        flaky.inject_failures(3)
        ask(controller, "one")
        ask(controller, "two")
        assert controller.breakers.state(flaky.worker_id) == OPEN
        flaky.restart()  # clears the remaining armed fault
        # One probe interval later the health monitor finds the worker
        # answering its liveness probe and half-opens the breaker —
        # well before the 5s reset timeout.
        controller.advance_clock(1.0)
        assert controller.breakers.state(flaky.worker_id) == HALF_OPEN
        served_before = flaky.served
        for index in range(2):  # round-robin reaches it within the pool
            ask(controller, f"trial-{index}")
        assert flaky.served == served_before + 1
        assert controller.breakers.state(flaky.worker_id) == CLOSED

    def test_killed_worker_recovers_within_one_probe_interval(self):
        controller = make_controller(replicas=1, resilience=fast_resilience())
        record = controller.workers("chat")[0]
        record.worker.inject_failures(2)
        with pytest.raises(SmmfError):
            ask(controller)
        assert controller.breakers.state(record.worker.worker_id) == OPEN
        record.worker.kill()
        record.worker.restart()  # clears any armed faults
        controller.advance_clock(1.0)
        response = ask(controller, "rejoined")
        assert response.text == "echo: rejoined"
        assert controller.breakers.state(record.worker.worker_id) == CLOSED

    def test_probe_outcomes_counted(self, registry):
        controller = make_controller(replicas=1, resilience=fast_resilience())
        worker = controller.workers("chat")[0].worker
        worker.inject_failures(2)
        with pytest.raises(SmmfError):
            ask(controller)  # trips the breaker open
        worker.kill()
        controller.advance_clock(1.0)  # probe fails: worker is dead
        worker.restart()
        # Slightly past the interval: the retry backoff already nudged
        # the clock off round numbers, and float subtraction on exact
        # interval multiples can land a hair under the rate limit.
        controller.advance_clock(1.1)  # probe succeeds: re-admitted
        counter = registry.get("resilience_probes_total")
        assert counter is not None
        assert counter.value(outcome="down") >= 1
        assert counter.value(outcome="recovered") == 1


def make_monitor(registry):
    breakers = BreakerBoard(BreakerConfig(), clock=lambda: 0.0)
    return HealthMonitor(registry, breakers, probe_interval_s=1.0)


class TestHealthMonitor:
    def test_probe_rate_limited_per_worker(self):
        registry = ModelRegistry()
        worker = ModelWorker(EchoModel(), latency_ms=0.0)
        registry.register(worker)
        monitor = make_monitor(registry)
        worker.kill()
        assert registry.sweep(31.0) == [worker.worker_id]
        assert monitor.probe(31.0) == []
        worker.restart()
        # Inside the interval the worker is not probed again, even
        # though it would now pass.
        assert monitor.probe(31.5) == []
        assert monitor.probe(32.0) == [worker.worker_id]
        assert registry.record(worker.worker_id).healthy

    def test_healthy_workers_are_not_probed(self):
        registry = ModelRegistry()
        worker = ModelWorker(EchoModel(), latency_ms=0.0)
        registry.register(worker)
        monitor = make_monitor(registry)
        assert monitor.probe(0.0) == []
        assert monitor.probe(100.0) == []

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            HealthMonitor(
                ModelRegistry(),
                BreakerBoard(BreakerConfig(), clock=lambda: 0.0),
                probe_interval_s=0.0,
            )


class TestDegradedFallback:
    def test_exhausted_model_degrades_to_fallback(self, registry):
        resilience = fast_resilience(fallback_model="chat")
        controller = ModelController(resilience=resilience)
        controller.register_worker(
            ModelWorker(EchoModel("sql"), latency_ms=0.0), latency_ms=0.0
        )
        controller.register_worker(
            ModelWorker(EchoModel("chat"), latency_ms=0.0), latency_ms=0.0
        )
        controller.workers("sql")[0].worker.kill()
        response = ask(controller, "rescue me", model="sql")
        assert response.text == "echo: rescue me"
        assert response.model == "chat"
        assert response.degraded is True
        counter = registry.get("resilience_fallbacks_total")
        assert counter is not None
        assert counter.value(model="sql", fallback="chat") == 1

    def test_no_fallback_configured_still_fails(self):
        controller = make_controller(replicas=1, resilience=fast_resilience())
        controller.workers("chat")[0].worker.kill()
        with pytest.raises(SmmfError, match="all replicas of 'chat'"):
            ask(controller)

    def test_fallback_does_not_chain(self):
        # Fallback is a single hop: when the fallback pool is also
        # down the original error surfaces (no infinite ladder).
        resilience = fast_resilience(fallback_model="chat")
        controller = ModelController(resilience=resilience)
        for name in ("sql", "chat"):
            controller.register_worker(
                ModelWorker(EchoModel(name), latency_ms=0.0),
                latency_ms=0.0,
            )
        for record in controller.workers():
            record.worker.kill()
        with pytest.raises(SmmfError):
            ask(controller, model="sql")

    def test_healthy_primary_is_never_degraded(self):
        resilience = fast_resilience(fallback_model="chat")
        controller = ModelController(resilience=resilience)
        for name in ("sql", "chat"):
            controller.register_worker(
                ModelWorker(EchoModel(name), latency_ms=0.0),
                latency_ms=0.0,
            )
        response = ask(controller, model="sql")
        assert response.model == "sql"
        assert response.degraded is False


class TestHealthSnapshot:
    def test_snapshot_rows_track_state(self):
        controller = make_controller(replicas=2, resilience=fast_resilience())
        flaky = controller.workers("chat")[0].worker
        flaky.inject_failures(3)  # one fault stays armed: probes fail
        ask(controller, "one")
        ask(controller, "two")
        rows = {row["worker"]: row for row in controller.health_snapshot()}
        assert len(rows) == 2
        row = rows[flaky.worker_id]
        assert row["model"] == "chat"
        assert row["alive"] is True
        assert row["breaker"] == OPEN
        assert row["failed"] == 2
        del rows[flaky.worker_id]
        ((_, steady),) = rows.items()
        assert steady["breaker"] == CLOSED
        assert steady["healthy"] is True
        assert steady["down_reason"] is None
