"""Model workers: the inference layer."""

from __future__ import annotations

import itertools
import threading
from typing import Optional

from repro.llm.base import (
    GenerationRequest,
    GenerationResponse,
    LanguageModel,
)
from repro.obs.metrics import Counter, Gauge, MetricHandle
from repro.obs.tracer import get_tracer

_worker_ids = itertools.count(1)


_INFLIGHT = MetricHandle(
    Gauge, "worker_inflight", "requests currently executing per worker",
    ("worker",),
)
_STREAMS = MetricHandle(
    Counter, "worker_streams_total", "streams by worker and outcome",
    ("worker", "outcome"),
)


class WorkerCrashed(Exception):
    """The worker is down (failure injection or explicit kill)."""


class ModelWorker:
    """Hosts one model replica and executes inference requests.

    Tracks in-flight and served counts (used by the least-busy
    balancer) and supports failure injection for failover tests.
    Counter updates are guarded by a per-worker lock: the serving
    scheduler dispatches to one worker from several pool threads
    concurrently, and unguarded ``+=`` would drop updates.
    """

    def __init__(
        self,
        model: LanguageModel,
        latency_ms: float = 10.0,
        worker_id: Optional[str] = None,
    ) -> None:
        self.model = model
        self.latency_ms = latency_ms
        self.worker_id = worker_id or f"worker-{next(_worker_ids)}"
        self.inflight = 0
        self.served = 0
        self.failed = 0
        #: Streams cancelled mid-generation through the continuous
        #: engine (slot released before the response finished).
        self.cancelled_streams = 0
        self.alive = True
        #: When > 0, the next N requests crash (failure injection).
        self.fail_next = 0
        self._lock = threading.Lock()

    # -- bookkeeping (all under the worker lock) ---------------------------

    def load_snapshot(self) -> tuple[int, int]:
        """A consistent ``(inflight, served)`` pair for balancers."""
        with self._lock:
            return self.inflight, self.served

    def stats_snapshot(self) -> dict[str, object]:
        """Every lock-guarded counter plus liveness, read atomically.

        The controller's health view reads this instead of the bare
        attributes so a snapshot taken mid-request can never pair a
        pre-crash ``alive`` with a post-crash ``failed`` count.
        """
        with self._lock:
            return {
                "inflight": self.inflight,
                "served": self.served,
                "failed": self.failed,
                "cancelled_streams": self.cancelled_streams,
                "alive": self.alive,
                "prefix_entries": self.model.cached_prefixes(),
            }

    def _check_up(self, amount: int = 1) -> None:
        """Raise if down or crash-injected; charges ``failed``."""
        with self._lock:
            if not self.alive:
                raise WorkerCrashed(f"{self.worker_id} is not alive")
            if self.fail_next > 0:
                self.fail_next -= 1
                self.failed += amount
                raise WorkerCrashed(
                    f"{self.worker_id} crashed handling a request"
                )

    def _begin(self, amount: int = 1) -> None:
        # Published under the lock, so racing ends cannot reorder it.
        with self._lock:
            self.inflight += amount
            _INFLIGHT.labels(self.worker_id)(self.inflight)

    def _end(self, amount: int = 1, served: int = 0) -> None:
        with self._lock:
            self.inflight -= amount
            self.served += served
            _INFLIGHT.labels(self.worker_id)(self.inflight)

    # -- execution ---------------------------------------------------------

    def handle(self, request: GenerationRequest) -> GenerationResponse:
        """Run one inference call; raises :class:`WorkerCrashed` when
        the worker is down."""
        self._check_up()
        self._begin()
        served = 0
        try:
            with get_tracer().span(
                "smmf.worker",
                worker=self.worker_id,
                model=self.model.name,
            ) as span:
                response = self.model.generate(request)
                span.set_attributes(
                    prompt_tokens=response.prompt_tokens,
                    completion_tokens=response.completion_tokens,
                )
            served = 1
        finally:
            self._end(served=served)
        return response

    def start_batch(self, requests: list[GenerationRequest]):
        """Open a continuous-batching execution on this replica.

        Liveness/failure-injection checks run *before* the model sees
        anything (so the whole just-formed batch fails over without a
        partial model call), and every member is charged to
        ``inflight`` until :class:`WorkerExecution` individually ends
        it — completed, cancelled, or abandoned to isolation.
        """
        self._check_up(amount=len(requests))
        self._begin(len(requests))
        try:
            execution = self.model.start_batch(list(requests))
        except BaseException:
            self._end(len(requests))
            raise
        return WorkerExecution(self, execution)

    def kill(self) -> None:
        """Simulate the worker process dying."""
        with self._lock:
            self.alive = False

    def restart(self) -> None:
        """Bring the worker back up, clearing injected faults.

        Restarting re-enables execution but does *not* re-admit the
        worker into routing by itself — the controller's health probe
        does that.
        The replica comes back cold: a crashed process lost whatever
        its model kept between requests.
        """
        self.model.drop_prefixes()
        with self._lock:
            self.alive = True
            self.fail_next = 0

    def inject_failures(self, count: int) -> None:
        """Arm ``count`` crash injections (chaos harness entry point)."""
        with self._lock:
            self.fail_next += count

    def probe(self) -> bool:
        """Liveness probe: up, with no armed crash injections.

        Used by the resilience health monitor; deliberately not an
        inference call, so probing never consumes injected faults or
        occupies the replica.
        """
        with self._lock:
            return self.alive and self.fail_next == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "down"
        return (
            f"ModelWorker({self.worker_id}, model={self.model.name!r}, "
            f"{state})"
        )


class WorkerExecution:
    """One live continuous batch on one worker: steps + accounting.

    Wraps the model-side :class:`repro.llm.base.BatchExecution` with
    the worker's in-flight/served bookkeeping. Members are charged to
    the worker at admission and individually released — ``complete``
    counts ``served``, ``release`` does not (cancellation, isolation,
    crash failover). Calls are serialized by the owning engine task;
    the worker's own counters stay lock-guarded as everywhere else.
    """

    def __init__(self, worker: ModelWorker, execution) -> None:
        self._worker = worker
        self.execution = execution

    @property
    def worker(self) -> ModelWorker:
        return self._worker

    def admit(self, request: GenerationRequest) -> int:
        """Add one member mid-run; raises :class:`WorkerCrashed` if
        the replica died (the engine leaves the request queued for a
        fresh execution)."""
        self._worker._check_up()
        self._worker._begin()
        try:
            return self.execution.admit(request)
        except BaseException:
            self._worker._end()
            raise

    def admit_many(self, requests: list[GenerationRequest]) -> list[int]:
        """Batched :meth:`admit`: one liveness check and one in-flight
        charge for the whole group — the engine admits a cohort
        between steps without paying per-member lock and gauge
        traffic. All-or-nothing, like :meth:`start_batch`."""
        if not requests:
            return []
        self._worker._check_up(amount=len(requests))
        self._worker._begin(len(requests))
        members: list[int] = []
        try:
            for request in requests:
                members.append(self.execution.admit(request))
        except BaseException:
            for member in members:
                self.execution.cancel(member)
            self._worker._end(len(requests))
            raise
        return members

    def pending(self) -> list[int]:
        return self.execution.pending()

    def step(self) -> list[int]:
        """One fused forward pass over every pending member.

        The liveness check runs first — a worker killed (or
        crash-injected) mid-run crashes the *step*, and the engine
        fails the uncomputed members over to another replica; members
        already computed keep streaming their buffered output.
        """
        todo = self.execution.pending()
        if not todo:
            return []
        self._worker._check_up(amount=len(todo))
        with get_tracer().span(
            "smmf.batch",
            worker=self._worker.worker_id,
            model=self._worker.model.name,
            continuous=True,
        ) as span:
            span.set_attribute("batch.size", len(todo))
            computed = self.execution.step()
            span.set_attributes(
                prompt_tokens=sum(
                    self.execution.response(m).prompt_tokens
                    for m in computed
                ),
                completion_tokens=sum(
                    self.execution.response(m).completion_tokens
                    for m in computed
                ),
            )
        return computed

    def response(self, member: int) -> GenerationResponse:
        return self.execution.response(member)

    def complete(self, member: int) -> None:
        """Member delivered its response: count it served."""
        self._worker._end(served=1)

    def complete_many(self, members: list[int]) -> None:
        """Batched :meth:`complete`: one accounting update for a
        group of members delivered in the same step."""
        if members:
            self._worker._end(len(members), served=len(members))

    def release(self, member: int, *, cancelled: bool = False) -> None:
        """Member leaves without a served response — cancelled by its
        consumer, handed to per-request isolation, or failed over
        after a crash. Frees the worker in-flight slot immediately
        (mid-generation for cancellations)."""
        self.execution.cancel(member)
        self._worker._end(served=0)
        if cancelled:
            with self._worker._lock:
                self._worker.cancelled_streams += 1
            _STREAMS.labels(self._worker.worker_id, "cancelled")()
