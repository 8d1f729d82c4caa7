"""Load-balancing policies over healthy workers."""

from __future__ import annotations

import abc
import random
import threading
from typing import Optional

from repro.obs.metrics import Histogram, MetricHandle
from repro.smmf.registry import WorkerRecord

#: Its count per label set is the routing decisions per policy and model.
_CHOSEN_INFLIGHT = MetricHandle(
    Histogram, "balancer_chosen_inflight",
    "queue depth of the chosen worker at pick time", ("policy", "model"),
    buckets=(0, 1, 2, 4, 8, 16, 32, 64),
)


class LoadBalancer(abc.ABC):
    """Choose one worker among the healthy candidates.

    Concrete policies implement ``choose``; at class-creation time it
    is wrapped to record the chosen worker's queue depth
    (``balancer_chosen_inflight``, by policy and model), so balancing
    behaviour is observable without policy code changes.
    """

    name = "base"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        choose = cls.__dict__.get("choose")
        if choose is not None and not getattr(
            choose, "__obs_wrapped__", False
        ):
            cls.choose = _metered_choose(choose)

    @abc.abstractmethod
    def choose(self, candidates: list[WorkerRecord]) -> WorkerRecord:
        """Pick a worker; ``candidates`` is non-empty."""


def _metered_choose(choose):
    def wrapped(
        self: "LoadBalancer", candidates: list[WorkerRecord]
    ) -> WorkerRecord:
        record = choose(self, candidates)
        _CHOSEN_INFLIGHT.labels(self.name, record.model_name)(
            record.worker.load_snapshot()[0]
        )
        return record

    wrapped.__obs_wrapped__ = True
    wrapped.__doc__ = choose.__doc__
    return wrapped


class RoundRobinBalancer(LoadBalancer):
    """Cycle through workers per model."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()

    def choose(self, candidates: list[WorkerRecord]) -> WorkerRecord:
        model = candidates[0].model_name
        with self._lock:
            cursor = self._cursors.get(model, 0)
            self._cursors[model] = cursor + 1
        return candidates[cursor % len(candidates)]


class RandomBalancer(LoadBalancer):
    """Uniform random choice (seedable for reproducibility)."""

    name = "random"

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def choose(self, candidates: list[WorkerRecord]) -> WorkerRecord:
        with self._lock:
            return self._rng.choice(candidates)


class LeastBusyBalancer(LoadBalancer):
    """Prefer the worker with the fewest in-flight requests, breaking
    ties by total served (coldest worker first).

    Loads are read through :meth:`ModelWorker.load_snapshot` so each
    candidate's (inflight, served) pair is internally consistent even
    while scheduler pool threads are mutating the counters.
    """

    name = "least_busy"

    def choose(self, candidates: list[WorkerRecord]) -> WorkerRecord:
        snapshots = [
            (record.worker.load_snapshot(), record) for record in candidates
        ]
        return min(
            snapshots,
            key=lambda pair: (
                pair[0][0],
                pair[0][1],
                pair[1].worker.worker_id,
            ),
        )[1]
