"""Resilience: what happens to the serving stack *after* a failure.

The SMMF layer exists so many model replicas can survive heavy
traffic; this package makes the pool survive faults (see
``docs/resilience.md``):

- :class:`RetryPolicy` — exponential backoff + jitter with an
  injectable clock/rng, honoring server ``retry_after`` hints and a
  hard per-call budget. Used by :class:`repro.smmf.LLMClient` (wall
  clock) and :class:`repro.smmf.ModelController` (logical clock).
- :class:`CircuitBreaker` / :class:`BreakerBoard` — per-worker
  closed → open → half-open machines the balancer consults instead of
  the old one-way ``record.healthy = False``.
- :class:`HealthMonitor` — clock-driven probes that re-admit
  breaker-tripped, killed-then-restarted or swept workers.
- :mod:`repro.resilience.chaos` — deterministic fault-injection
  harness (scripted kill/restart/flap timelines) driving the chaos
  test suite and ``benchmarks/bench_resilience.py``.

Every controller and client runs all of it; :class:`ResilienceConfig`
tunes it and cannot switch it off (retries off is
``RetryConfig(max_attempts=1)``).
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.resilience.chaos import (
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    flap_schedule,
)
from repro.resilience.config import (
    BreakerConfig,
    ResilienceConfig,
    RetryConfig,
)
from repro.resilience.health import HealthMonitor
from repro.resilience.retry import RetryPolicy

__all__ = [
    "BreakerBoard",
    "BreakerConfig",
    "CLOSED",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosSchedule",
    "CircuitBreaker",
    "HALF_OPEN",
    "HealthMonitor",
    "OPEN",
    "ResilienceConfig",
    "RetryConfig",
    "RetryPolicy",
    "flap_schedule",
]
