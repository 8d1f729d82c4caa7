"""Model registry: the controller's metadata store."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.smmf.worker import ModelWorker


class RegistryError(Exception):
    """Invalid registry operation."""


@dataclass
class WorkerRecord:
    """Registry metadata for one worker."""

    worker: ModelWorker
    model_name: str
    heartbeat: float = 0.0
    healthy: bool = True
    #: Why ``healthy`` went False: ``"sweep"`` (stale heartbeat) is the
    #: only reason; ``None`` while healthy. A real heartbeat or a
    #: successful health probe re-admits the worker. Crashes do not
    #: touch the record — the worker's circuit breaker tracks them.
    down_reason: Optional[str] = None
    metadata: dict[str, Any] = field(default_factory=dict)


class ModelRegistry:
    """Tracks which workers serve which model, with heartbeats.

    Time is an explicit parameter (a logical clock) so tests and
    benchmarks control it deterministically. A registry lock guards the
    record tables: scheduler pool threads read candidate lists while
    heartbeats, sweeps and (de)registrations mutate them.
    """

    def __init__(self, heartbeat_timeout: float = 30.0) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        self._records: dict[str, WorkerRecord] = {}
        self._by_model: dict[str, list[str]] = {}
        self._lock = threading.RLock()

    def register(
        self,
        worker: ModelWorker,
        now: float = 0.0,
        metadata: Optional[dict[str, Any]] = None,
    ) -> None:
        with self._lock:
            if worker.worker_id in self._records:
                raise RegistryError(
                    f"worker {worker.worker_id!r} already registered"
                )
            record = WorkerRecord(
                worker=worker,
                model_name=worker.model.name,
                heartbeat=now,
                metadata=dict(metadata or {}),
            )
            self._records[worker.worker_id] = record
            self._by_model.setdefault(worker.model.name, []).append(
                worker.worker_id
            )

    def deregister(self, worker_id: str) -> None:
        with self._lock:
            record = self._records.pop(worker_id, None)
            if record is None:
                raise RegistryError(f"unknown worker {worker_id!r}")
            self._by_model[record.model_name].remove(worker_id)
            if not self._by_model[record.model_name]:
                del self._by_model[record.model_name]

    def heartbeat(self, worker_id: str, now: float) -> None:
        with self._lock:
            record = self._records.get(worker_id)
            if record is None:
                raise RegistryError(f"unknown worker {worker_id!r}")
            record.heartbeat = now
            record.healthy = True
            record.down_reason = None

    def sweep(self, now: float) -> list[str]:
        """Mark workers with stale heartbeats unhealthy; returns them."""
        stale = []
        with self._lock:
            for worker_id, record in self._records.items():
                if now - record.heartbeat > self.heartbeat_timeout:
                    if record.healthy:
                        record.down_reason = "sweep"
                    record.healthy = False
                    stale.append(worker_id)
        return stale

    def healthy_workers(self, model_name: str) -> list[WorkerRecord]:
        with self._lock:
            ids = self._by_model.get(model_name, [])
            return [
                self._records[worker_id]
                for worker_id in ids
                if self._records[worker_id].healthy
                and self._records[worker_id].worker.alive
            ]

    def all_workers(self, model_name: Optional[str] = None) -> list[WorkerRecord]:
        with self._lock:
            if model_name is None:
                return list(self._records.values())
            return [
                self._records[worker_id]
                for worker_id in self._by_model.get(model_name, [])
            ]

    def model_names(self) -> list[str]:
        with self._lock:
            return sorted(self._by_model)

    def record(self, worker_id: str) -> WorkerRecord:
        with self._lock:
            record = self._records.get(worker_id)
            if record is None:
                raise RegistryError(f"unknown worker {worker_id!r}")
            return record
