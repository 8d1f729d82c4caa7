"""Per-worker circuit breakers.

A breaker replaces the controller's one-way ``record.healthy = False``
with the classic three-state machine:

- **closed** — traffic flows; consecutive :class:`WorkerCrashed`
  failures are counted, any success resets the count.
- **open** — ``failure_threshold`` consecutive failures trip it; the
  balancer skips the worker entirely until ``reset_timeout_s`` has
  elapsed (or a health probe succeeds, which short-circuits the wait).
- **half-open** — up to ``half_open_probes`` trial requests are let
  through; the first success closes the breaker, a failure re-opens
  it and restarts the timeout.

Time comes from an injectable clock (the controller's logical clock),
so every transition is deterministic under test. State changes publish
the ``resilience_breaker_state`` gauge (0=closed, 1=half-open, 2=open).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.obs.metrics import Gauge, MetricHandle
from repro.resilience.config import BreakerConfig

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


_STATE = MetricHandle(
    Gauge, "resilience_breaker_state",
    "per-worker breaker state (0=closed, 1=half-open, 2=open)", ("worker",),
)


class CircuitBreaker:
    """One worker's breaker; all transitions are lock-protected."""

    def __init__(
        self, config: BreakerConfig, clock: Callable[[], float]
    ) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        #: Lifetime transition count (observability / benchmarks).
        self.opens = 0

    def _tick_locked(self) -> None:
        """Open -> half-open once the reset timeout has elapsed."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at
            >= self.config.reset_timeout_s
        ):
            self._state = HALF_OPEN
            self._half_open_inflight = 0

    def state(self) -> str:
        with self._lock:
            self._tick_locked()
            return self._state

    def available(self) -> bool:
        """Non-mutating: could a request be admitted right now?"""
        with self._lock:
            self._tick_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                return (
                    self._half_open_inflight
                    < self.config.half_open_probes
                )
            return False

    def acquire(self) -> bool:
        """Admit one request; half-open admissions take a probe slot.

        The two-step ``available``/``acquire`` split exists so the
        balancer can *filter* candidates without burning probe slots
        on workers it does not pick.
        """
        with self._lock:
            self._tick_locked()
            if self._state == CLOSED:
                return True
            if (
                self._state == HALF_OPEN
                and self._half_open_inflight
                < self.config.half_open_probes
            ):
                self._half_open_inflight += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._half_open_inflight = 0
            self._state = CLOSED

    def release(self) -> None:
        """An admitted request ended with no verdict on the worker
        (neither served nor crashed): give back its half-open trial
        slot, or the breaker would wait on it forever."""
        with self._lock:
            if self._state == HALF_OPEN and self._half_open_inflight > 0:
                self._half_open_inflight -= 1

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            tripped = (
                self._state == HALF_OPEN
                or self._failures >= self.config.failure_threshold
            )
            if tripped and self._state != OPEN:
                self.opens += 1
            if tripped:
                self._state = OPEN
                self._opened_at = self._clock()
                self._half_open_inflight = 0

    def force_half_open(self) -> None:
        """A successful out-of-band health probe: skip the timeout and
        let trial traffic decide (an open breaker only)."""
        with self._lock:
            if self._state == OPEN:
                self._state = HALF_OPEN
                self._half_open_inflight = 0


class BreakerBoard:
    """The controller's breakers, one per worker id, created lazily."""

    def __init__(
        self, config: BreakerConfig, clock: Callable[[], float]
    ) -> None:
        self.config = config
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, worker_id: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(worker_id)
            if breaker is None:
                breaker = self._breakers[worker_id] = CircuitBreaker(
                    self.config, self._clock
                )
            return breaker

    def available(self, worker_id: str) -> bool:
        return self.breaker(worker_id).available()

    def acquire(self, worker_id: str) -> bool:
        return self.breaker(worker_id).acquire()

    def release(self, worker_id: str) -> None:
        self.breaker(worker_id).release()

    def record_success(self, worker_id: str) -> None:
        self.breaker(worker_id).record_success()
        self._publish(worker_id)

    def record_failure(self, worker_id: str) -> None:
        self.breaker(worker_id).record_failure()
        self._publish(worker_id)

    def probe_succeeded(self, worker_id: str) -> None:
        self.breaker(worker_id).force_half_open()
        self._publish(worker_id)

    def state(self, worker_id: str) -> str:
        return self.breaker(worker_id).state()

    def states(self) -> dict[str, str]:
        with self._lock:
            ids = list(self._breakers)
        return {worker_id: self.state(worker_id) for worker_id in ids}

    def _publish(self, worker_id: str) -> None:
        _STATE.labels(worker_id)(_STATE_VALUES[self.state(worker_id)])
