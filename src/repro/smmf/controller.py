"""The model controller: registry ownership, routing and failover."""

from __future__ import annotations

import random
import threading
from dataclasses import replace
from typing import Any, Callable, Optional

from repro.llm.base import GenerationRequest, GenerationResponse, LLMError
from repro.obs.metrics import Counter, Histogram, MetricHandle
from repro.obs.tracer import get_tracer
from repro.resilience.breaker import BreakerBoard
from repro.resilience.config import ResilienceConfig
from repro.resilience.health import HealthMonitor
from repro.resilience.retry import RetryPolicy
from repro.serving.config import ServingConfig
from repro.serving.engine import RequestScheduler
from repro.smmf.balancer import LoadBalancer, RoundRobinBalancer
from repro.smmf.registry import ModelRegistry, WorkerRecord
from repro.smmf.worker import ModelWorker, WorkerCrashed, WorkerExecution

_FALLBACKS = MetricHandle(
    Counter, "resilience_fallbacks_total",
    "requests degraded to the fallback model", ("model", "fallback"),
)
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


def _record_success(
    model: str,
    worker_id: str,
    latency_ms: float,
    response: GenerationResponse,
) -> None:
    _REQUESTS.labels(model, "success")()
    _LATENCY.labels(model)(latency_ms)
    _TOKENS.labels(model, "prompt")(response.prompt_tokens)
    _TOKENS.labels(model, "completion")(response.completion_tokens)
    _WORKER_REQUESTS.labels(worker_id)()


def model_metrics() -> dict[str, dict[str, float]]:
    """Per-model serving aggregates (``DBGPT.model_metrics()``, ``GET
    /v1/metrics``), derived from the registry's ``model_*`` series and
    so process-wide, like every registry series."""
    requests, latency, retries, tokens = (
        handle.instrument()
        for handle in (_REQUESTS, _LATENCY, _RETRIES, _TOKENS)
    )
    # A fallback model's replicas can crash before it serves anything.
    labelled = requests.label_sets() + retries.label_sets()
    models = sorted({labels["model"] for labels in labelled})
    return {
        model: {
            "requests": int(requests.value(model=model, outcome="success")),
            "failures": int(requests.value(model=model, outcome="failure")),
            "retries": int(retries.value(model=model)),
            "prompt_tokens": int(tokens.value(model=model, kind="prompt")),
            "completion_tokens": int(
                tokens.value(model=model, kind="completion")
            ),
            "mean_latency_ms": round(latency.mean(model=model), 3),
        }
        for model in models
    }


class SmmfError(Exception):
    """A request could not be served (no workers, all retries failed)."""


class _AllReplicasFailed(Exception):
    """Internal: one failover sweep exhausted every admissible replica.

    Carries the last worker error; converted to :class:`SmmfError` (or
    absorbed by a timed retry round / fallback route) by the caller.
    """

    def __init__(self, last_error: Optional[Exception]) -> None:
        super().__init__(str(last_error))
        self.last_error = last_error


class ModelController:
    """Routes requests to model workers with retry-based failover.

    A crashed worker is retried on the remaining replicas (up to
    ``max_retries``). A per-worker circuit breaker records the failure
    (closed → open on consecutive crashes → half-open probe), the
    balancer consults breakers, timed retry rounds (exponential backoff
    on the logical clock) re-sweep after the health monitor has had a
    chance to re-admit recovered workers, and an exhausted model can
    degrade to a configured fallback model (responses marked
    ``degraded``).
    """

    def __init__(
        self,
        balancer: Optional[LoadBalancer] = None,
        heartbeat_timeout: float = 30.0,
        max_retries: int = 2,
        resilience: Optional[ResilienceConfig] = None,
        serving: Optional[ServingConfig] = None,
    ) -> None:
        self.registry = ModelRegistry(heartbeat_timeout)
        self.balancer = balancer or RoundRobinBalancer()
        self.max_retries = max_retries
        self._clock = 0.0
        self._clock_lock = threading.Lock()
        #: The continuous-batching engine in front of the pool: the
        #: API server's only dispatch path. Its loop starts on the
        #: first submit; :meth:`RequestScheduler.close` stops it.
        self.scheduler = RequestScheduler(self, serving)
        self.resilience = resilience or ResilienceConfig()
        self.breakers = BreakerBoard(self.resilience.breaker, self._now)
        self.health = HealthMonitor(
            self.registry,
            self.breakers,
            probe_interval_s=self.resilience.probe_interval_s,
        )
        # Controller retries advance the *logical* clock (which is also
        # what runs health probes and breaker timeouts), so recovery
        # tests are deterministic; the seeded rng keeps the jittered
        # delay sequence reproducible too.
        self._retry_policy = RetryPolicy(
            self.resilience.retry,
            sleep=self.advance_clock,
            rng=random.Random(0),
            layer="controller",
        )

    # -- time ------------------------------------------------------------

    def _now(self) -> float:
        """The logical clock, read under its lock.

        ``advance_clock`` runs on whatever thread served the request,
        so an unguarded read could observe a torn/stale value; every
        reader (property, registry calls, breaker board) goes through
        here.
        """
        with self._clock_lock:
            return self._clock

    def advance_clock(self, seconds: float) -> float:
        """Advance the controller's logical clock (tests/benchmarks).

        Every advance also runs due health probes, so recovery happens
        as a side effect of time passing — traffic latency, retry
        backoff, or an explicit advance.
        """
        with self._clock_lock:
            self._clock += seconds
            now = self._clock
        self.health.probe(now)
        return now

    @property
    def clock(self) -> float:
        return self._now()

    # -- worker lifecycle ---------------------------------------------------

    def register_worker(
        self, worker: ModelWorker, latency_ms: float = 10.0
    ) -> None:
        self.registry.register(
            worker, now=self._now(), metadata={"latency_ms": latency_ms}
        )

    def heartbeat(self, worker_id: str) -> None:
        self.registry.heartbeat(worker_id, self._now())

    def health_sweep(self) -> list[str]:
        """Evict workers whose heartbeats are stale."""
        return self.registry.sweep(self._now())

    def models(self) -> list[str]:
        return self.registry.model_names()

    def workers(self, model_name: Optional[str] = None) -> list[WorkerRecord]:
        return self.registry.all_workers(model_name)

    def health_snapshot(self) -> list[dict[str, Any]]:
        """Per-worker health view for ``repro health`` / ``/health``."""
        rows = []
        for record in self.registry.all_workers():
            worker = record.worker
            stats = worker.stats_snapshot()
            rows.append(
                {
                    "worker": worker.worker_id,
                    "model": record.model_name,
                    "alive": stats["alive"],
                    "healthy": record.healthy,
                    "down_reason": record.down_reason,
                    "breaker": self.breakers.state(worker.worker_id),
                    "inflight": stats["inflight"],
                    "served": stats["served"],
                    "failed": stats["failed"],
                }
            )
        return rows

    # -- routing ----------------------------------------------------------

    def _sweep(
        self,
        model_name: str,
        execute: Callable[[WorkerRecord], Any],
    ) -> tuple[Any, WorkerRecord]:
        """One failover sweep: try each admissible replica at most once.

        Returns ``(result, record)`` on success; every crashed attempt
        counts in ``model_retries_total``, whatever the request's
        outcome. Raises
        :class:`_AllReplicasFailed` when every candidate crashed or
        none was admissible; :class:`LLMError` propagates untouched (a
        bad prompt is not a worker failure, so it must not burn
        replicas or trip breakers).
        """
        attempts = 0
        tried: set[str] = set()
        last_error: Optional[Exception] = None
        while attempts <= self.max_retries:
            candidates = [
                record
                for record in self.registry.healthy_workers(model_name)
                if record.worker.worker_id not in tried
                and self.breakers.available(record.worker.worker_id)
            ]
            if not candidates:
                break
            record = self.balancer.choose(candidates)
            worker_id = record.worker.worker_id
            tried.add(worker_id)
            if not self.breakers.acquire(worker_id):
                # Lost a half-open probe slot to a concurrent request.
                continue
            attempts += 1
            try:
                result = execute(record)
            except WorkerCrashed as exc:
                self.breakers.record_failure(worker_id)
                _RETRIES.labels(model_name)()
                last_error = exc
                continue
            except LLMError:
                self.breakers.record_success(worker_id)
                raise
            except BaseException:
                # No verdict on the replica: hand back a half-open
                # trial slot rather than wedging the breaker.
                self.breakers.release(worker_id)
                raise
            self.breakers.record_success(worker_id)
            return result, record
        raise _AllReplicasFailed(last_error)

    def _route(
        self,
        model_name: str,
        execute: Callable[[WorkerRecord], Any],
        allow_fallback: bool = True,
    ) -> tuple[Any, WorkerRecord, bool]:
        """Sweep + resilience: timed retry rounds, then fallback.

        Returns ``(result, record, degraded)``; raises
        :class:`_AllReplicasFailed` once the whole ladder is exhausted.
        """
        try:
            result, record = self._retry_policy.run(
                lambda: self._sweep(model_name, execute),
                classify=lambda exc: (
                    isinstance(exc, _AllReplicasFailed),
                    None,
                ),
            )
            return result, record, False
        except _AllReplicasFailed:
            fallback = self.resilience.fallback_model
            if (
                not allow_fallback
                or fallback is None
                or fallback == model_name
                or fallback not in self.registry.model_names()
            ):
                raise
            _FALLBACKS.labels(model_name, fallback)()
            result, record, _ = self._route(
                fallback, execute, allow_fallback=False
            )
            return result, record, True

    def generate(
        self, model_name: str, request: GenerationRequest
    ) -> GenerationResponse:
        """Serve one request with failover across replicas."""
        with get_tracer().span("smmf.generate", model=model_name) as span:
            response = self._generate(model_name, request, span)
        return response

    def _generate(
        self, model_name: str, request: GenerationRequest, span
    ) -> GenerationResponse:
        try:
            response, record, degraded = self._route(
                model_name, lambda rec: rec.worker.handle(request)
            )
        except _AllReplicasFailed as exc:
            _REQUESTS.labels(model_name, "failure")()
            raise self._exhausted_error(model_name, exc.last_error)
        except LLMError:
            _REQUESTS.labels(model_name, "failure")()
            raise
        if degraded:
            response = replace(response, degraded=True)
            span.set_attribute("degraded", True)
        latency = float(record.metadata.get("latency_ms", 0.0))
        _record_success(model_name, record.worker.worker_id, latency, response)
        span.set_attribute("worker", record.worker.worker_id)
        self.advance_clock(latency / 1000.0)
        return response

    def start_batch(
        self, model_name: str, requests: list[GenerationRequest]
    ) -> "ExecutionLease":
        """Open a continuous-batching execution on one replica.

        The whole just-formed batch retries on another replica if the
        chosen worker crashes at start (no model call happened yet),
        and an exhausted model degrades to the configured fallback.
        What comes back is a lease the serving engine steps: forward
        passes, mid-run admissions, and per-member completion all run
        against the leased replica. A replica that dies mid-run sends
        its uncomputed members back through here (the engine re-queues
        them), so this is the only way a fused batch reaches a replica.
        """
        if not requests:
            raise ValueError("cannot start an empty execution")
        with get_tracer().span(
            "smmf.start_batch",
            model=model_name,
            batch_size=len(requests),
        ) as span:
            try:
                wexec, record, degraded = self._route(
                    model_name,
                    lambda rec: rec.worker.start_batch(requests),
                )
            except _AllReplicasFailed as exc:
                for _request in requests:
                    _REQUESTS.labels(model_name, "failure")()
                raise self._exhausted_error(
                    model_name, exc.last_error, batch=len(requests)
                )
            span.set_attributes(
                worker=record.worker.worker_id, degraded=degraded
            )
        return ExecutionLease(self, model_name, wexec, record, degraded)

    def _exhausted_error(
        self,
        model_name: str,
        last_error: Optional[Exception],
        batch: Optional[int] = None,
    ) -> SmmfError:
        known = self.registry.model_names()
        if model_name not in known:
            return SmmfError(
                f"no model named {model_name!r} is deployed; "
                f"available: {known}"
            )
        if batch is not None:
            return SmmfError(
                f"all replicas of {model_name!r} failed a batch of "
                f"{batch} (last error: {last_error})"
            )
        return SmmfError(
            f"all replicas of {model_name!r} failed "
            f"(last error: {last_error})"
        )


class ExecutionLease:
    """A continuous-batching execution leased from one replica.

    Bridges the serving engine to the controller's accounting: each
    :meth:`step` charges one replica latency window to the logical
    clock (a fused pass occupies the replica for one window however
    many members it computes) and feeds the circuit breakers;
    :meth:`complete` records per-member success metrics; a
    :class:`WorkerCrashed` from a step is recorded as a worker failure
    before propagating, so the lease the engine's re-queued members
    get next routes around the dead replica.
    """

    def __init__(
        self,
        controller: ModelController,
        model_name: str,
        wexec: WorkerExecution,
        record: WorkerRecord,
        degraded: bool,
    ) -> None:
        self._controller = controller
        self.model_name = model_name
        self._wexec = wexec
        self.record = record
        self.degraded = degraded

    @property
    def worker_id(self) -> str:
        return self.record.worker.worker_id

    def admit(self, request: GenerationRequest) -> int:
        return self._wexec.admit(request)

    def admit_many(self, requests: list[GenerationRequest]) -> list[int]:
        """Batched :meth:`admit`: one worker handshake for a cohort
        joining the live batch between steps."""
        return self._wexec.admit_many(requests)

    def pending(self) -> list[int]:
        return self._wexec.pending()

    def step(self) -> list[int]:
        """One fused forward pass; returns the member ids computed.

        :class:`LLMError` (poison prompt) leaves the members pending
        for the engine's per-request isolation and is *not* a worker
        failure; :class:`WorkerCrashed` is recorded against the
        replica before re-raising.
        """
        try:
            computed = self._wexec.step()
        except WorkerCrashed:
            self._controller.breakers.record_failure(self.worker_id)
            raise
        except LLMError:
            self._controller.breakers.record_success(self.worker_id)
            _REQUESTS.labels(self.model_name, "failure")()
            raise
        self._controller.breakers.record_success(self.worker_id)
        if computed:
            latency = float(self.record.metadata.get("latency_ms", 0.0))
            # One fused pass occupies the replica for one latency
            # window however many members it computes, which is
            # exactly the throughput win being modelled.
            self._controller.advance_clock(latency / 1000.0)
        return computed

    def response(self, member: int) -> GenerationResponse:
        response = self._wexec.response(member)
        if self.degraded and not response.degraded:
            response = replace(response, degraded=True)
        return response

    def complete(self, member: int) -> GenerationResponse:
        """Member delivered: worker ``served`` + success metrics."""
        response = self.response(member)
        self._wexec.complete(member)
        _record_success(
            self.model_name,
            self.worker_id,
            float(self.record.metadata.get("latency_ms", 0.0)),
            response,
        )
        return response

    def complete_many(self, members: list[int]) -> None:
        """Batched :meth:`complete`: one worker accounting update for
        members delivered in the same step, then per-member success
        metrics (``/v1/metrics`` stays a per-request ledger)."""
        self._wexec.complete_many(members)
        latency = float(self.record.metadata.get("latency_ms", 0.0))
        for member in members:
            _record_success(
                self.model_name, self.worker_id, latency, self.response(member)
            )

    def release(self, member: int, *, cancelled: bool = False) -> None:
        """Member leaves unserved (cancelled / isolated / failed
        over); frees its worker slot immediately."""
        self._wexec.release(member, cancelled=cancelled)
