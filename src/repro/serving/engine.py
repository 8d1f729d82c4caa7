"""The asyncio continuous-batching serving engine.

This is SMMF's one dispatch path (every ``ModelController`` builds
one): an event loop on a dedicated daemon thread runs step-level
scheduling against the worker pool, vLLM-style.
Every batch stays **live**: between fused forward passes the engine
admits newly arrived compatible requests into the in-flight execution,
and a member whose stream consumer cancels is released
*mid-generation* — its worker in-flight slot and batch seat free
immediately.

Admission is a hard-capacity queue with structured
:class:`SchedulerOverloaded` sheds carrying ``retry_after``,
per-request deadlines, and the tenancy admission hook running
synchronously in the caller's context. Callers wait either way:
:meth:`schedule` blocks a thread, :meth:`aschedule` awaits a response
without one, and :meth:`astream` delivers token chunks through bounded
per-stream queues
(:class:`repro.serving.streams.TokenStream`) with backpressure and
cancellation propagation. A :meth:`schedule` caller that finds the
engine idle does not wait at all: it runs its cohort of one itself.

Execution model, per batch:

1. **form** — whenever a slot is free the main loop pops the
   head-of-line request plus every queued request of its shape (the
   ``shape_key`` contract), up to ``max_batch_size``. There is no
   timer: what has queued by then is the cohort.
2. **lease** — :meth:`ModelController.start_batch` routes the batch
   to a replica with the controller's whole-batch failover ladder.
3. **step** — one fused ``generate_batch`` pass computes every
   pending member (one latency window on simulated hardware). A
   poison :class:`LLMError` sends the step's members to per-request
   isolation; a mid-run :class:`WorkerCrashed` puts the uncomputed
   members back at the head of the queue, so step 1 forms them again
   and step 2 leases them a replica that is up.
4. **deliver + admit** — computed members resolve (or stream chunks
   until their bounded buffer fills); compatible queued requests are
   admitted into the live batch and the loop returns to step 3.

Everything is observable under the ``serving_*`` metric names
(``docs/observability.md``) and in :meth:`stats`
(``admitted_into_flight``, member occupancy, cancellations).
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.llm.base import GenerationRequest, GenerationResponse, LLMError
from repro.llm.base import chunk_text
from repro.obs.metrics import get_registry
from repro.serving.config import ServingConfig
from repro.serving.loop import LoopRunner
from repro.serving.scheduler import (
    BATCH_SIZE_BUCKETS,
    DeadlineExceeded,
    SchedulerClosed,
    SchedulerOverloaded,
    StreamCancelled,
    StreamClosed,
    _Pending,
    shape_key,
)
from repro.serving.streams import TokenStream


class _Member:
    """One request's seat in a live execution (loop-thread state)."""

    __slots__ = ("pending", "computed", "response", "chunks", "pos",
                 "lease_done")

    def __init__(self, pending: _Pending) -> None:
        self.pending = pending
        self.computed = False
        self.response: Optional[GenerationResponse] = None
        self.chunks: Optional[list[str]] = None
        self.pos = 0
        #: True once worker accounting settled outside the lease
        #: (per-request isolation served it elsewhere).
        self.lease_done = False


class _Execution:
    """One in-flight continuous batch (owned by one engine task)."""

    def __init__(self, model: str, key: tuple, lease: Any) -> None:
        self.model = model
        self.key = key
        self.lease = lease
        self.members: dict[int, _Member] = {}
        #: Popped from the queue, joining at the next step (the
        #: worker admit handshake runs in the step's executor call).
        self.to_admit: list[_Pending] = []
        self.wake = asyncio.Event()
        #: Stops further admissions (replica crashed mid-run).
        self.no_admit = False
        #: True once the first fused pass ran — admissions after that
        #: are the continuous-batching capability being exercised.
        self.stepped = False


class RequestScheduler:
    """Continuous-batching admission queue over a controller.

    The one scheduler every controller puts in front of its worker
    pool. The event loop and its bounded step executor start lazily
    on the first request that queues; an unused scheduler, or one
    only ever called by sync callers that find it idle, costs nothing.
    """

    def __init__(
        self,
        controller: Any,
        config: Optional[ServingConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._controller = controller
        self.config = config or ServingConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._queue: deque[_Pending] = deque()
        self._executions: list[_Execution] = []
        self._started = False
        self._closed = False
        self._runner: Optional[LoopRunner] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._kick = asyncio.Event()
        self._tasks: set = set()
        #: Optional admission gate installed by the tenancy fabric; it
        #: runs synchronously in the submitting caller's context (so
        #: ``contextvars`` tenant scopes are visible) whether the wait
        #: that follows is sync or async.
        self._admission_hook: Optional[
            Callable[[str, GenerationRequest], None]
        ] = None
        # Lifetime statistics (under self._lock).
        self._shed = 0
        self._expired = 0
        self._cancelled = 0
        self._dispatched_batches = 0
        self._dispatched_requests = 0
        self._admitted_into_flight = 0
        self._active_slots = 0
        #: True while a ``_wake_all`` callback is queued on the loop.
        self._wake_pending = False
        # Instruments, resolved once against the registry current at
        # construction (tests swap registries before building one).
        registry = get_registry()
        self._requests_total = registry.counter(
            "serving_requests_total", "scheduler admissions by outcome"
        )
        self._isolations_total = registry.counter(
            "serving_batch_isolations_total",
            "fused batches re-dispatched per-request after a model error",
        )
        self._batch_size = registry.histogram(
            "serving_batch_size",
            "requests per dispatched batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._wait_ms = registry.histogram(
            "serving_wait_ms", "time from admission to dispatch"
        )
        self._queue_depth = registry.gauge(
            "serving_queue_depth", "requests admitted but not dispatched"
        ).bind()
        #: Bound recorders by (instrument name, model, outcome), made on
        #: first use, so recording sorts no labels.
        self._recorders: dict[tuple, Callable[[float], None]] = {}

    # -- sync facade -------------------------------------------------------

    def schedule(
        self,
        model: str,
        request: GenerationRequest,
        timeout_s: Optional[float] = None,
    ) -> GenerationResponse:
        """Admit, run, and return the response.

        A caller that finds the engine idle — nothing queued, a slot
        free, budget left — is a cohort of one nobody could join, so
        it runs that cohort on its own thread (:meth:`_run_inline`)
        instead of handing it to the engine loop and a step thread and
        blocking until they hand it back. Otherwise it queues behind
        the others and blocks until dispatched.
        """
        self._check_admission(model, request)
        budget = self._budget(timeout_s)
        with self._lock:
            inline = (
                not self._closed
                and not self._queue
                and self._active_slots < self.config.pool_width
                # A spent budget queues, to expire there as a 504.
                and (budget is None or budget > 0)
            )
            if inline:
                self._active_slots += 1
        if inline:
            return self._run_inline(model, request)
        pending = self._enqueue(model, request, budget, stream=False)
        pending.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.response is not None
        return pending.response

    def _run_inline(
        self, model: str, request: GenerationRequest
    ) -> GenerationResponse:
        """The caller's own cohort of one, on the caller's thread and
        in its ``Context``, holding the slot :meth:`schedule` took. The
        engine keeps only the books a queued cohort of one would have
        left: the admission, a batch of one, a zero wait, the outcome.
        """
        self._count_outcome(model, "admitted")
        self._count_step(model, 1)
        self._recorder(self._wait_ms, model)(0.0)
        outcome = "error"
        try:
            response = self._controller.generate(model, request)
            outcome = "completed"
        finally:
            self._count_outcome(model, outcome)
            with self._lock:
                self._active_slots -= 1
                queued = bool(self._queue)
            if queued:
                self._wake_engine()
            # Where the queued path blocked, yield the GIL once: a
            # thread that never waits otherwise keeps it for a whole
            # switch interval, and other callers' turns stall behind it.
            time.sleep(0)
        return response

    def submit(
        self,
        model: str,
        request: GenerationRequest,
        timeout_s: Optional[float] = None,
    ) -> _Pending:
        """Admit one request; returns the pending handle immediately."""
        return self._admit(model, request, timeout_s, stream=False)

    def submit_stream(
        self,
        model: str,
        request: GenerationRequest,
        timeout_s: Optional[float] = None,
    ) -> _Pending:
        """Admit a streaming request; ``pending.stream`` is the
        bounded :class:`TokenStream` chunks arrive on."""
        return self._admit(model, request, timeout_s, stream=True)

    def _admit(
        self,
        model: str,
        request: GenerationRequest,
        timeout_s: Optional[float],
        stream: bool,
    ) -> _Pending:
        self._check_admission(model, request)
        return self._enqueue(model, request, self._budget(timeout_s), stream)

    def _check_admission(
        self, model: str, request: GenerationRequest
    ) -> None:
        """Run the tenancy admission hook, if any; raising rejects."""
        with self._lock:
            hook = self._admission_hook
        if hook is not None:
            # Outside the lock: hooks take their own locks (the quota
            # manager's) and must not nest under ours.
            hook(model, request)

    def _budget(self, timeout_s: Optional[float]) -> Optional[float]:
        return (
            timeout_s
            if timeout_s is not None
            else self.config.default_timeout_s
        )

    def _enqueue(
        self,
        model: str,
        request: GenerationRequest,
        budget: Optional[float],
        stream: bool,
    ) -> _Pending:
        self._ensure_started()
        now = self._clock()
        deadline = now + budget if budget is not None else None
        with self._lock:
            if self._closed:
                raise SchedulerClosed("scheduler is shut down")
            if len(self._queue) >= self.config.queue_capacity:
                self._shed += 1
                retry_after = self._retry_after_locked()
                self._count_outcome(model, "shed")
                raise SchedulerOverloaded(
                    f"serving queue full "
                    f"({self.config.queue_capacity} waiting); "
                    f"retry in {retry_after:.2f}s",
                    retry_after=retry_after,
                )
            pending = _Pending(
                model=model,
                request=request,
                enqueued_at=now,
                deadline=deadline,
                context=contextvars.copy_context(),
            )
            if stream:
                pending.stream = TokenStream(
                    self.config.stream_buffer,
                    on_event=self._wake_engine,
                )
            self._queue.append(pending)
            self._queue_gauge_locked()
            self._count_outcome(model, "admitted")
        self._wake_engine()
        return pending

    # -- async facade ------------------------------------------------------

    async def aschedule(
        self,
        model: str,
        request: GenerationRequest,
        timeout_s: Optional[float] = None,
    ) -> GenerationResponse:
        """Awaitable :meth:`schedule`: admission (and the tenancy
        hook) run synchronously in the caller's task, then the wait
        parks on the caller's loop without occupying a thread."""
        pending = self.submit(model, request, timeout_s=timeout_s)
        return await self._await_pending(pending)

    @staticmethod
    async def _await_pending(pending: _Pending) -> GenerationResponse:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def relay() -> None:
            def settle() -> None:
                if future.cancelled():
                    return
                if pending.error is not None:
                    future.set_exception(pending.error)
                else:
                    future.set_result(pending.response)

            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:
                pass  # caller's loop already closed

        pending.add_done_callback(relay)
        return await future

    async def astream(
        self,
        model: str,
        request: GenerationRequest,
        timeout_s: Optional[float] = None,
    ):
        """Async token stream; closing the generator mid-stream
        cancels the member and frees its slot mid-generation."""
        pending = self.submit_stream(model, request, timeout_s=timeout_s)
        stream = pending.stream
        try:
            async for chunk in stream:
                yield chunk
        finally:
            stream.cancel()

    # -- introspection / control ------------------------------------------

    def set_admission_hook(
        self,
        hook: Optional[Callable[[str, GenerationRequest], None]],
    ) -> None:
        """Install (or clear, with None) the pre-enqueue admission
        gate; raising from it rejects before the queue is touched."""
        with self._lock:
            self._admission_hook = hook

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict[str, Any]:
        """Lifetime scheduler statistics: queue and dispatch counts
        plus the live-batch view (in-flight member occupancy,
        admissions into live batches, cancellations)."""
        with self._lock:
            batches = self._dispatched_batches
            inflight_members = sum(
                len(execution.members) for execution in self._executions
            )
            capacity = self.config.pool_width * self.config.max_batch_size
            return {
                "mode": "continuous",
                "queue_depth": len(self._queue),
                "inflight_batches": self._active_slots,
                "inflight_members": inflight_members,
                "occupancy": round(inflight_members / capacity, 3),
                "shed": self._shed,
                "expired": self._expired,
                "cancelled": self._cancelled,
                "dispatched_batches": batches,
                "dispatched_requests": self._dispatched_requests,
                "admitted_into_flight": self._admitted_into_flight,
                "mean_batch_size": (
                    round(self._dispatched_requests / batches, 3)
                    if batches
                    else 0.0
                ),
            }

    def close(self) -> None:
        """Stop the engine. Queued requests fail with SchedulerClosed;
        members still generating are released (their streams fail with
        ``stream_closed``); the loop and executor shut down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._queue_gauge_locked()
            started = self._started
            runner, executor = self._runner, self._executor
        for pending in abandoned:
            self._settle_reject(
                pending, SchedulerClosed("scheduler shut down")
            )
        if not started:
            return
        try:
            runner.run(self._ashutdown(), timeout=10.0)
        except Exception:
            pass  # loop died first; executor shutdown below still runs
        executor.shutdown(wait=True)
        runner.close()

    # -- engine internals (loop thread unless noted) -----------------------

    def _ensure_started(self) -> None:
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.pool_width,
                thread_name_prefix="serving-step",
            )
            runner = self._runner = LoopRunner(name="serving-engine")
        # The engine task runs in a clean context: spans opened by
        # steps are roots, not children of whichever caller happened
        # to submit first.
        runner.submit(self._main(), context=contextvars.Context())

    def _wake_engine(self) -> None:
        """Thread-safe: kick the main loop and every execution.

        Wakeups coalesce: while one ``_wake_all`` callback is pending
        on the loop, further submits/drains/cancels piggyback on it
        instead of each paying a ``call_soon_threadsafe`` round trip —
        under a 64-client burst that is one loop callback, not 64.
        """
        with self._lock:
            if not self._started or self._wake_pending:
                return
            runner = self._runner
            self._wake_pending = True
        try:
            runner.loop.call_soon_threadsafe(self._wake_all)
        except RuntimeError:  # loop shut down concurrently
            with self._lock:
                self._wake_pending = False

    def _wake_all(self) -> None:
        with self._lock:
            # Cleared before the events are set: a state change racing
            # in after this point schedules a fresh callback.
            self._wake_pending = False
            executions = list(self._executions)
        self._kick.set()
        for execution in executions:
            execution.wake.set()

    def _is_closed(self) -> bool:
        with self._lock:
            return self._closed

    async def _ashutdown(self) -> None:
        self._wake_all()
        tasks = list(self._tasks)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _in_executor(self, fn, *args):
        """Run blocking work on the engine's own bounded step executor
        (``asyncio.to_thread`` only reaches the loop's default pool)."""
        with self._lock:
            executor = self._executor
        return await asyncio.get_running_loop().run_in_executor(
            executor, fn, *args
        )

    async def _main(self) -> None:
        self._tasks.add(asyncio.current_task())
        while not self._is_closed():
            with self._lock:
                formed = self._form_locked()
            if formed is None:
                await self._kick.wait()
                self._kick.clear()
                continue
            model, batch = formed
            if len(batch) == 1 and batch[0].stream is None:
                self._spawn(self._run_single(batch[0]))
            else:
                self._spawn(self._run_execution(model, batch))

    def _form_locked(self) -> Optional[tuple[str, list[_Pending]]]:
        """Pop the next cohort — the head-of-line request plus every
        queued request of its shape, up to ``max_batch_size`` — and
        take a slot for it. ``None`` when there is nothing to start
        until the next kick: empty queue, every slot busy, or closed.
        """
        self._expire_locked()
        if (
            self._closed
            or not self._queue
            or self._active_slots >= self.config.pool_width
        ):
            return None
        head = self._queue[0]
        key = shape_key(head.model, head.request)
        batch = [self._queue.popleft()]
        kept: deque[_Pending] = deque()
        while self._queue:
            pending = self._queue.popleft()
            if (
                len(batch) < self.config.max_batch_size
                and shape_key(pending.model, pending.request) == key
            ):
                batch.append(pending)
            else:
                kept.append(pending)
        self._queue = kept
        self._active_slots += 1
        self._queue_gauge_locked()
        self._observe_wait(batch)
        return head.model, batch

    def _observe_wait(self, batch: list[_Pending]) -> None:
        now = self._clock()
        for pending in batch:
            self._recorder(self._wait_ms, pending.model)(
                (now - pending.enqueued_at) * 1000.0
            )

    # -- single-request fast path -----------------------------------------

    async def _run_single(self, pending: _Pending) -> None:
        """Cohorts of one non-streaming request dispatch through the
        controller's plain ``generate`` — per-request failover, no
        batch machinery. It runs in the caller's ``Context``, so its
        ``smmf.*`` spans nest under the caller's trace exactly as a
        direct call's would; a fused batch serves many callers and
        keeps the engine's clean context."""
        model = pending.model
        self._count_step(model, 1)
        outcome = "completed"
        try:
            response = await self._in_executor(
                pending.context.run,
                self._controller.generate,
                model,
                pending.request,
            )
            pending.resolve(response)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiter
            pending.reject(exc)
            outcome = "error"
        finally:
            self._count_outcome(model, outcome)
            with self._lock:
                self._active_slots -= 1
            self._kick.set()

    # -- continuous execution ---------------------------------------------

    async def _run_execution(
        self, model: str, batch: list[_Pending]
    ) -> None:
        key = shape_key(model, batch[0].request)
        try:
            lease = await self._in_executor(
                self._controller.start_batch,
                model,
                [pending.request for pending in batch],
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            self._count_step(model, len(batch))
            for pending in batch:
                self._settle_reject(pending, exc)
                self._count_outcome(model, "error")
            with self._lock:
                self._active_slots -= 1
            self._kick.set()
            return
        execution = _Execution(model, key, lease)
        for member_id, pending in zip(lease.pending(), batch):
            execution.members[member_id] = _Member(pending)
        with self._lock:
            self._executions.append(execution)
        try:
            await self._execution_loop(execution)
        finally:
            with self._lock:
                self._executions.remove(execution)
                self._active_slots -= 1
            self._kick.set()

    async def _execution_loop(self, execution: _Execution) -> None:
        while not self._is_closed():
            self._reap_cancelled(execution)
            if execution.to_admit or any(
                not member.computed
                for member in execution.members.values()
            ):
                await self._step(execution)
                self._reap_cancelled(execution)
            self._deliver(execution)
            self._admit_into(execution)
            if not execution.members and not execution.to_admit:
                return
            if not execution.to_admit and all(
                member.computed
                for member in execution.members.values()
            ):
                # Every runnable member ran; delivery is blocked on
                # consumers. Sleep until a drain, cancel, or submit.
                await execution.wake.wait()
                execution.wake.clear()
        # Engine shut down mid-execution: flush what computed, then
        # release the rest (including requests popped for admission
        # that never reached the worker).
        self._reap_cancelled(execution)
        self._deliver(execution)
        for pending in execution.to_admit:
            self._settle_reject(
                pending, SchedulerClosed("scheduler shut down")
            )
            self._count_outcome(execution.model, "error")
        execution.to_admit = []
        for member_id, member in list(execution.members.items()):
            if not member.lease_done:
                execution.lease.release(member_id)
            error: Exception
            if member.pending.stream is not None:
                error = StreamClosed(
                    "scheduler shut down mid-stream"
                )
            else:
                error = SchedulerClosed("scheduler shut down")
            self._settle_reject(member.pending, error)
            self._count_outcome(execution.model, "error")
            del execution.members[member_id]

    async def _step(self, execution: _Execution) -> None:
        """One fused forward pass, with isolation and crash re-queue."""
        from repro.smmf.worker import WorkerCrashed

        members = execution.members
        lease = execution.lease
        model = execution.model
        to_admit = execution.to_admit
        execution.to_admit = []
        stepped_before = execution.stepped

        # One executor call does ALL per-member work — the worker
        # admit handshakes for joining requests, the fused pass, and
        # for members with no stream to pace, completion + waiter
        # wakeup + outcome metrics. The engine task is parked on the
        # await, so the step thread owns the member table for the
        # duration; the single loop thread never serializes worker
        # locks or per-member metric writes across executions.
        #
        # While the batch is pure non-stream and the next cohort is
        # immediately admittable, the thread cycles admit → step →
        # settle in place: zero loop handoffs per round. Streams
        # (which need loop-paced delivery) hand control back to the
        # engine task.
        def run_step() -> None:
            cohort = to_admit
            stepped = stepped_before
            while True:
                if cohort:
                    try:
                        member_ids = lease.admit_many(
                            [pending.request for pending in cohort]
                        )
                    except BaseException:  # replica died
                        self._requeue(execution, cohort)
                        return
                    for member_id, pending in zip(member_ids, cohort):
                        members[member_id] = _Member(pending)
                    if stepped:
                        with self._lock:
                            self._admitted_into_flight += len(cohort)
                    self._observe_wait(cohort)
                todo = [
                    member_id
                    for member_id in sorted(members)
                    if not members[member_id].computed
                ]
                if not todo:
                    return
                self._count_step(model, len(todo))
                computed = lease.step()
                stepped = True
                settled: list[_Member] = []
                settled_ids: list[int] = []
                for member_id in computed:
                    member = members.get(member_id)
                    if member is None:
                        continue
                    member.computed = True
                    member.response = lease.response(member_id)
                    if member.pending.stream is not None:
                        member.chunks = chunk_text(member.response.text)
                    elif not member.lease_done:
                        del members[member_id]
                        settled.append(member)
                        settled_ids.append(member_id)
                if settled:
                    # Accounting first, waiter wakeups second, so a
                    # caller that observes its response also observes
                    # the worker's served count.
                    lease.complete_many(settled_ids)
                    self._count_outcome(
                        model, "completed", count=len(settled)
                    )
                    for member in settled:
                        member.pending.resolve(member.response)
                if any(
                    member.pending.stream is not None
                    for member in members.values()
                ):
                    return
                with self._lock:
                    cohort = self._pop_compatible_locked(execution)
                if not cohort:
                    return

        try:
            await self._in_executor(run_step)
        except LLMError as exc:
            await self._isolate(execution, self._todo(execution), exc)
            return
        except WorkerCrashed:
            self._failover(execution, self._todo(execution))
            return
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            for member_id in self._todo(execution):
                member = execution.members.pop(member_id, None)
                if member is None:
                    continue
                execution.lease.release(member_id)
                self._settle_reject(member.pending, exc)
                self._count_outcome(execution.model, "error")
            return
        execution.stepped = True

    @staticmethod
    def _todo(execution: _Execution) -> list[int]:
        """Member ids a failed fused pass left uncomputed."""
        return [
            member_id
            for member_id in sorted(execution.members)
            if not execution.members[member_id].computed
        ]

    def _count_step(self, model: str, size: int) -> None:
        self._recorder(self._batch_size, model)(size)
        with self._lock:
            self._dispatched_batches += 1
            self._dispatched_requests += size

    def _count_outcome(
        self, model: str, outcome: str, count: int = 1
    ) -> None:
        self._recorder(self._requests_total, model, outcome)(count)

    def _recorder(
        self, instrument: Any, model: str, outcome: Optional[str] = None
    ) -> Callable[[float], None]:
        """``instrument``'s recorder for this model (and outcome)."""
        key = (instrument.name, model, outcome)
        recorder = self._recorders.get(key)
        if recorder is None:
            labels = {"model": model}
            if outcome is not None:
                labels["outcome"] = outcome
            recorder = self._recorders[key] = instrument.bind(**labels)
        return recorder

    async def _isolate(
        self, execution: _Execution, todo: list[int], error: LLMError
    ) -> None:
        """A poison prompt failed the fused pass: the step's members
        re-dispatch individually so only the poison request fails."""
        if len(todo) == 1:
            member = execution.members.pop(todo[0], None)
            if member is not None:
                execution.lease.release(todo[0])
                self._settle_reject(member.pending, error)
                self._count_outcome(execution.model, "error")
            return
        self._recorder(self._isolations_total, execution.model)()
        requests = [
            execution.members[member_id].pending.request
            for member_id in todo
        ]

        def run_all() -> list[tuple[str, Any]]:
            results: list[tuple[str, Any]] = []
            for request in requests:
                try:
                    results.append(
                        (
                            "ok",
                            self._controller.generate(
                                execution.model, request
                            ),
                        )
                    )
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    results.append(("err", exc))
            return results

        results = await self._in_executor(run_all)
        for member_id, (kind, value) in zip(todo, results):
            member = execution.members.get(member_id)
            if member is None:
                continue
            execution.lease.release(member_id)
            member.lease_done = True
            if kind == "ok":
                member.computed = True
                member.response = value
                if member.pending.stream is not None:
                    member.chunks = chunk_text(value.text)
            else:
                self._settle_reject(member.pending, value)
                self._count_outcome(execution.model, "error")
                del execution.members[member_id]

    def _failover(self, execution: _Execution, todo: list[int]) -> None:
        """The replica crashed mid-run: uncomputed members give up
        their seats and go back to the head of the queue, where
        formation leases them a fresh execution through
        ``start_batch``'s failover ladder; already-computed members
        keep draining their buffered output."""
        requeued = []
        for member_id in todo:
            execution.lease.release(member_id)
            requeued.append(execution.members.pop(member_id).pending)
        self._requeue(execution, requeued)

    def _requeue(
        self, execution: _Execution, pendings: list[_Pending]
    ) -> None:
        """Thread-safe: the execution's replica died, so it admits
        nothing further and ``pendings`` return to the head of the
        queue in their order (failing instead once the engine shut
        down and nothing will form them again)."""
        execution.no_admit = True
        with self._lock:
            closed = self._closed
            if not closed:
                self._queue.extendleft(reversed(pendings))
                self._queue_gauge_locked()
        if not closed:
            self._wake_engine()
            return
        for pending in pendings:
            self._settle_reject(
                pending, SchedulerClosed("scheduler shut down")
            )
            self._count_outcome(execution.model, "error")

    def _reap_cancelled(self, execution: _Execution) -> None:
        """Release members whose stream consumer walked away,
        freeing their seat and worker slot mid-generation."""
        for member_id, member in list(execution.members.items()):
            stream = member.pending.stream
            if stream is None or not stream.cancelled:
                continue
            if not member.lease_done:
                execution.lease.release(member_id, cancelled=True)
            self._count_outcome(execution.model, "cancelled")
            with self._lock:
                self._cancelled += 1
            member.pending.reject(
                StreamCancelled("stream cancelled by consumer")
            )
            del execution.members[member_id]
            stream.released.set()

    def _deliver(self, execution: _Execution) -> None:
        """Resolve computed members; push stream chunks until each
        member's bounded buffer fills (per-stream backpressure — a
        slow consumer pauses only its own member)."""
        for member_id, member in list(execution.members.items()):
            if not member.computed:
                continue
            stream = member.pending.stream
            if stream is None:
                response = self._finish_member(execution, member_id, member)
                member.pending.resolve(response)
                continue
            chunks = member.chunks or []
            while member.pos < len(chunks):
                if not stream.offer(chunks[member.pos]):
                    break
                member.pos += 1
            if member.pos >= len(chunks) and not stream.cancelled:
                response = self._finish_member(execution, member_id, member)
                stream.finish()
                member.pending.resolve(response)
                stream.released.set()

    def _finish_member(
        self, execution: _Execution, member_id: int, member: _Member
    ) -> GenerationResponse:
        if member.lease_done:
            response = member.response
        else:
            response = execution.lease.complete(member_id)
        self._count_outcome(execution.model, "completed")
        del execution.members[member_id]
        return response

    def _admit_into(self, execution: _Execution) -> None:
        """Pull compatible queued requests into the live batch.
        Called by the execution's task between steps only: queue
        surgery under the engine lock here; the per-member
        ``lease.admit`` worker handshakes in the next step's executor
        call (the lease is owned by this task)."""
        with self._lock:
            admitted = self._pop_compatible_locked(execution)
        execution.to_admit.extend(admitted)

    def _pop_compatible_locked(
        self, execution: _Execution
    ) -> list[_Pending]:
        if execution.no_admit or self._closed:
            return []
        seats = len(execution.members) + len(execution.to_admit)
        if seats >= self.config.max_batch_size:
            return []
        now = self._clock()
        kept: deque[_Pending] = deque()
        admitted: list[_Pending] = []
        while self._queue:
            pending = self._queue.popleft()
            if (
                pending.deadline is not None
                and now >= pending.deadline
            ):
                self._expire_one_locked(pending, now)
                continue
            if (
                seats + len(admitted) < self.config.max_batch_size
                and shape_key(pending.model, pending.request)
                == execution.key
            ):
                admitted.append(pending)
            else:
                kept.append(pending)
        self._queue = kept
        self._queue_gauge_locked()
        return admitted

    # -- expiry / shared plumbing -----------------------------------------

    def _expire_locked(self) -> None:
        if not self._queue:
            return
        now = self._clock()
        survivors: deque[_Pending] = deque()
        expired: list[_Pending] = []
        for pending in self._queue:
            if pending.deadline is not None and now >= pending.deadline:
                expired.append(pending)
            else:
                survivors.append(pending)
        if not expired:
            return
        self._queue = survivors
        for pending in expired:
            self._expire_one_locked(pending, now)
        self._queue_gauge_locked()

    def _expire_one_locked(self, pending: _Pending, now: float) -> None:
        self._expired += 1
        self._count_outcome(pending.model, "expired")
        self._settle_reject(
            pending,
            DeadlineExceeded(
                f"deadline passed after "
                f"{now - pending.enqueued_at:.3f}s in queue"
            ),
        )

    @staticmethod
    def _settle_reject(pending: _Pending, error: BaseException) -> None:
        if pending.stream is not None:
            pending.stream.fail(error)
        pending.reject(error)

    def _retry_after_locked(self) -> float:
        """Backoff hint: the backlog ahead of the caller in
        batch-capacity units of the pool, at 5 ms a round."""
        capacity_per_round = max(
            1, self.config.pool_width * self.config.max_batch_size
        )
        backlog_rounds = 1 + len(self._queue) / capacity_per_round
        return round(0.005 * backlog_rounds, 4)

    def _queue_gauge_locked(self) -> None:
        self._queue_depth(len(self._queue))
