"""Resilience under worker flapping: survival rate and recovery time.

The claim worth certifying: with the resilience layer armed, a
three-replica pool under a scripted fault timeline — 20% duty-cycle
flapping, two total-outage storms, and crash injections — keeps **at
least 99% of requests succeeding** (storm turns degrade to a fallback
model instead of failing), while the same stack with retries off and
no fallback loses every storm-window request. A tripped breaker
recovers within one health-probe interval.

Methodology: both stacks run the *identical* deterministic chaos
timeline (:mod:`repro.resilience.chaos`) against the controller's
logical clock — no randomness, no sleeps, so the numbers are exactly
reproducible. One request is issued per 100ms logical step for 30
logical seconds. Numbers land in ``BENCH_resilience.json`` at the
repo root.
"""

import json
import pathlib

from repro.llm.base import GenerationRequest, LanguageModel
from repro.resilience import (
    BreakerConfig,
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    ResilienceConfig,
    RetryConfig,
    flap_schedule,
)
from repro.resilience.chaos import FAIL_NEXT, KILL, RESTART
from repro.smmf.controller import ModelController
from repro.smmf.worker import ModelWorker

REPLICAS = 3
STEP_S = 0.1
STEPS = 300  # 30 logical seconds of traffic
FLAP_PERIOD_S = 10.0
DOWN_FRACTION = 0.2
STORMS = (8.8, 18.8)  # total outages: every replica down for 1s
STORM_DOWN_S = 1.0
PROBE_INTERVAL_S = 1.0
OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_resilience.json"
)


class EchoModel(LanguageModel):
    def __init__(self, name):
        super().__init__(name, frozenset({"chat", "qa"}))

    def complete(self, request):
        return f"echo: {request.prompt}"


def build_events():
    """The shared fault timeline: staggered flap + storms + crashes."""
    events = list(
        flap_schedule(
            worker_count=REPLICAS,
            period_s=FLAP_PERIOD_S,
            down_fraction=DOWN_FRACTION,
            until_s=STEPS * STEP_S,
        ).events
    )
    for start in STORMS:
        for index in range(REPLICAS):
            events.append(ChaosEvent(start, index, KILL))
            events.append(
                ChaosEvent(start + STORM_DOWN_S, index, RESTART)
            )
    # Two consecutive crash injections trip worker 0's breaker
    # (failure_threshold=2) mid-run.
    events.append(ChaosEvent(2.5, 0, FAIL_NEXT, value=2))
    return events


def build_stack(resilient):
    """The baseline runs with retries off and no fallback route; both
    stacks share the breaker and probe settings."""
    resilience = ResilienceConfig(
        retry=(
            RetryConfig(max_attempts=2, base_delay_s=0.05, jitter=0.1)
            if resilient
            else RetryConfig(max_attempts=1)
        ),
        breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=5.0),
        probe_interval_s=PROBE_INTERVAL_S,
        fallback_model="reserve" if resilient else None,
    )
    controller = ModelController(resilience=resilience)
    for _replica in range(REPLICAS):
        controller.register_worker(
            ModelWorker(EchoModel("chat"), latency_ms=0.0),
            latency_ms=0.0,
        )
    # Both stacks get the reserve pool; only the resilient one has the
    # fallback route that can reach it.
    controller.register_worker(
        ModelWorker(EchoModel("reserve"), latency_ms=0.0),
        latency_ms=0.0,
    )
    workers = [r.worker for r in controller.workers("chat")]
    return controller, workers, ChaosInjector(
        workers, ChaosSchedule(build_events())
    )


def drive(controller, workers, injector):
    """One request per logical step; returns the run's scorecard."""
    successes = failures = degraded = 0
    flaky = workers[0]
    opened_at = recovered_at = served_at_open = None
    for step in range(STEPS):
        now = controller.advance_clock(STEP_S)
        injector.advance_to(now)
        try:
            response = controller.generate(
                "chat", GenerationRequest(f"q{step}", task="chat")
            )
            successes += 1
            if response.degraded:
                degraded += 1
        except Exception:
            failures += 1
        # A mid-step probe can half-open the breaker before this poll
        # sees OPEN, so watch the cumulative trip counter.
        breaker = controller.breakers.breaker(flaky.worker_id)
        if opened_at is None and breaker.opens > 0:
            opened_at = controller.clock
            served_at_open = flaky.served
        elif (
            opened_at is not None
            and recovered_at is None
            and flaky.served > served_at_open
        ):
            recovered_at = controller.clock
    recovery_s = (
        recovered_at - opened_at
        if opened_at is not None and recovered_at is not None
        else None
    )
    return {
        "successes": successes,
        "failures": failures,
        "degraded": degraded,
        "success_rate": successes / STEPS,
        "breaker_recovery_s": recovery_s,
    }


def test_resilience_under_flapping():
    baseline_controller, _workers, injector = build_stack(
        resilient=False
    )
    baseline = drive(baseline_controller, _workers, injector)

    resilient_controller, workers, injector = build_stack(
        resilient=True
    )
    resilient = drive(resilient_controller, workers, injector)

    payload = {
        "workload": {
            "replicas": REPLICAS,
            "steps": STEPS,
            "step_s": STEP_S,
            "flap_period_s": FLAP_PERIOD_S,
            "down_fraction": DOWN_FRACTION,
            "storms": list(STORMS),
            "storm_down_s": STORM_DOWN_S,
            "probe_interval_s": PROBE_INTERVAL_S,
        },
        "baseline": {
            **{k: v for k, v in baseline.items()
               if k != "breaker_recovery_s"},
            "success_rate": round(baseline["success_rate"], 4),
        },
        "resilient": {
            **resilient,
            "success_rate": round(resilient["success_rate"], 4),
            "breaker_recovery_s": (
                round(resilient["breaker_recovery_s"], 3)
                if resilient["breaker_recovery_s"] is not None
                else None
            ),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print("\nresilience under 20% worker flapping (+ 2 storms)")
    print(f"  baseline  : {baseline['success_rate']:6.1%} success, "
          f"{baseline['failures']} failed turns")
    print(f"  resilient : {resilient['success_rate']:6.1%} success, "
          f"{resilient['degraded']} degraded (fallback) turns")
    print(f"  breaker recovery: "
          f"{payload['resilient']['breaker_recovery_s']}s "
          f"(probe interval {PROBE_INTERVAL_S}s)")
    print(f"  written to: {OUTPUT.name}")

    assert resilient["success_rate"] >= 0.99, (
        f"resilient stack only {resilient['success_rate']:.1%} under "
        f"flapping (need >= 99%)"
    )
    assert baseline["success_rate"] < resilient["success_rate"], (
        "baseline matched the resilient stack — the storms exercised "
        "nothing"
    )
    assert resilient["degraded"] > 0, (
        "no degraded turns — the fallback route never engaged"
    )
    recovery = resilient["breaker_recovery_s"]
    assert recovery is not None and recovery <= PROBE_INTERVAL_S + 0.5, (
        f"breaker recovery took {recovery}s "
        f"(need <= probe interval {PROBE_INTERVAL_S}s + one step slack)"
    )
