"""Serving metrics: counters and latency accounting.

Since the ``repro.obs`` subsystem landed, :class:`MetricsCollector` is
a thin facade over the unified :class:`~repro.obs.metrics.MetricsRegistry`:
every recording both updates the per-model aggregates (the historical
``snapshot()`` shape the API server and benchmarks consume) and
publishes to the global registry under the documented metric names
(``model_requests_total``, ``model_latency_ms``, ``model_tokens_total``,
``model_retries_total``, ``worker_requests_total``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.metrics import Counter, Histogram, MetricHandle

_REQUESTS = MetricHandle(
    Counter, "model_requests_total", "inference requests per model",
    ("model", "outcome"),
)
_LATENCY = MetricHandle(
    Histogram, "model_latency_ms", "per-model serving latency", ("model",)
)
_RETRIES = MetricHandle(
    Counter, "model_retries_total", "failover retries per model", ("model",)
)
_TOKENS = MetricHandle(
    Counter, "model_tokens_total", "tokens processed per model",
    ("model", "kind"),
)
_WORKER_REQUESTS = MetricHandle(
    Counter, "worker_requests_total", "requests served per worker", ("worker",)
)


@dataclass
class ModelMetrics:
    """Aggregated counters for one model."""

    requests: int = 0
    failures: int = 0
    retries: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    total_latency_ms: float = 0.0

    @property
    def mean_latency_ms(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_latency_ms / self.requests


class MetricsCollector:
    """Per-model and per-worker metric aggregation."""

    def __init__(self) -> None:
        self._models: dict[str, ModelMetrics] = {}
        self._worker_requests: dict[str, int] = {}
        self._lock = threading.Lock()

    def record_success(
        self,
        model: str,
        worker_id: str,
        latency_ms: float,
        prompt_tokens: int,
        completion_tokens: int,
        retries: int = 0,
    ) -> None:
        with self._lock:
            metrics = self._models.setdefault(model, ModelMetrics())
            metrics.requests += 1
            metrics.retries += retries
            metrics.prompt_tokens += prompt_tokens
            metrics.completion_tokens += completion_tokens
            metrics.total_latency_ms += latency_ms
            self._worker_requests[worker_id] = (
                self._worker_requests.get(worker_id, 0) + 1
            )
        _REQUESTS.labels(model, "success")()
        _LATENCY.labels(model)(latency_ms)
        if retries:
            _RETRIES.labels(model)(retries)
        _TOKENS.labels(model, "prompt")(prompt_tokens)
        _TOKENS.labels(model, "completion")(completion_tokens)
        _WORKER_REQUESTS.labels(worker_id)()

    def record_failure(self, model: str) -> None:
        with self._lock:
            metrics = self._models.setdefault(model, ModelMetrics())
            metrics.failures += 1
        _REQUESTS.labels(model, "failure")()

    def model(self, name: str) -> ModelMetrics:
        with self._lock:
            return self._models.setdefault(name, ModelMetrics())

    def worker_requests(self, worker_id: str) -> int:
        with self._lock:
            return self._worker_requests.get(worker_id, 0)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict view for dashboards and benchmark output."""
        with self._lock:
            return {
                name: {
                    "requests": m.requests,
                    "failures": m.failures,
                    "retries": m.retries,
                    "prompt_tokens": m.prompt_tokens,
                    "completion_tokens": m.completion_tokens,
                    "mean_latency_ms": round(m.mean_latency_ms, 3),
                }
                for name, m in sorted(self._models.items())
            }
