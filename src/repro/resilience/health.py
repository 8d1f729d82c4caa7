"""Health recovery: probe non-serving workers back into rotation.

A missed heartbeat marks a worker unhealthy, crashes trip its breaker,
and a killed process stays down until restarted. The monitor closes
the loop — every time the controller's logical clock advances it
probes workers that are out of rotation (unhealthy record, dead
process, or open breaker), at most once per ``probe_interval_s`` each,
and a successful probe re-admits the worker:

- the registry record gets a fresh heartbeat (``healthy = True``),
- an open breaker is forced half-open, so the next balancer pick can
  send trial traffic without waiting out the reset timeout.

Probes are pure liveness checks (:meth:`ModelWorker.probe`), not
inference calls, so they never consume injected faults or occupy a
replica.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Counter, MetricHandle
from repro.resilience.breaker import CLOSED, BreakerBoard
from repro.smmf.registry import ModelRegistry


_PROBES = MetricHandle(
    Counter, "resilience_probes_total", "health probes by outcome",
    ("outcome",),
)


class HealthMonitor:
    """Clock-driven recovery probes over a registry's workers."""

    def __init__(
        self,
        registry: ModelRegistry,
        breakers: BreakerBoard,
        probe_interval_s: float = 1.0,
    ) -> None:
        if probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        self.registry = registry
        self.probe_interval_s = probe_interval_s
        self.breakers = breakers
        self._last_probe: dict[str, float] = {}

    def _needs_probe(self, record) -> bool:
        if not record.healthy or not record.worker.alive:
            return True
        return self.breakers.state(record.worker.worker_id) != CLOSED

    def probe(
        self, now: float, model_name: Optional[str] = None
    ) -> list[str]:
        """Probe due out-of-rotation workers; returns re-admitted ids."""
        readmitted: list[str] = []
        for record in self.registry.all_workers(model_name):
            if not self._needs_probe(record):
                continue
            worker_id = record.worker.worker_id
            last = self._last_probe.get(worker_id)
            if last is not None and now - last < self.probe_interval_s:
                continue
            self._last_probe[worker_id] = now
            if record.worker.probe():
                self.registry.heartbeat(worker_id, now)
                self.breakers.probe_succeeded(worker_id)
                readmitted.append(worker_id)
                _PROBES.labels("recovered")()
            else:
                _PROBES.labels("down")()
        return readmitted
