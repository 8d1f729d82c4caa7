"""Deterministic tests for the continuous-batching engine.

Everything here is gated by ``threading.Event`` — no sleeps.
``pool_width=1`` plus a gated model pins the single dispatch slot so
the admission queue can be arranged into an exact state before the
gate opens (the trick ``tests/smmf/test_scheduler.py`` uses too). The
capabilities under test — mid-flight admission, mid-generation
cancellation, per-stream backpressure — are additionally gated by the
stream buffer bound itself: a buffer smaller than the chunk count
*provably* keeps the member live until the test releases it.
"""

import asyncio
import threading

import pytest

from repro.llm.base import (
    GenerationRequest,
    GenerationResponse,
    LanguageModel,
    chunk_text,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.tracer import Tracer, set_tracer
from repro.resilience import BreakerConfig, ResilienceConfig
from repro.serving import RequestScheduler, ServingConfig
from repro.smmf import ModelSpec, SmmfError, deploy
from repro.smmf.api_server import ApiServer
from repro.tenancy.context import tenant_scope
from repro.tenancy.quotas import TenantThrottled


class GatedModel(LanguageModel):
    """Echo model whose batch passes can be held at a gate; ``tag``
    prefixes every answer, so a test can tell replicas apart."""

    def __init__(
        self, name="chat", capabilities=("chat", "qa"), tag="echo"
    ):
        super().__init__(name, frozenset(capabilities))
        self.tag = tag
        self.lock = threading.Lock()
        self.single_calls = 0
        self.batch_sizes = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def complete(self, request):
        with self.lock:
            self.single_calls += 1
        self.entered.set()
        assert self.release.wait(timeout=5.0), "gate never released"
        return f"{self.tag}: {request.prompt}"

    def generate_batch(self, requests):
        with self.lock:
            self.batch_sizes.append(len(requests))
        self.entered.set()
        assert self.release.wait(timeout=5.0), "gate never released"
        return [
            GenerationResponse(
                text=f"{self.tag}: {request.prompt}",
                model=self.name,
                prompt_tokens=1,
                completion_tokens=1,
            )
            for request in requests
        ]


def drain(chunks):
    """Every chunk of one async token stream, on a fresh loop."""

    async def collect():
        return [chunk async for chunk in chunks]

    return asyncio.run(collect())


def make_stack(
    config, model_factory, replicas=1, name="chat", resilience=None
):
    controller, client = deploy(
        [ModelSpec(name, model_factory, replicas=replicas, latency_ms=0.0)],
        serving=config,
        resilience=resilience,
    )
    return controller, client, controller.scheduler


def pin_the_only_slot(scheduler, model):
    """Hold ``pool_width=1``'s single slot with a gated request of its
    own shape: what is submitted next queues into one cohort, which
    forms when ``model.release`` is set."""
    model.entered.clear()
    model.release.clear()
    gate = scheduler.submit(
        "chat", GenerationRequest("gate", task="chat", max_tokens=128)
    )
    assert model.entered.wait(timeout=5.0)
    return gate


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


#: A prompt whose echo chunks far outnumber the small stream buffers
#: used below, so a member can never finish delivery on its own.
LONG_PROMPT = "a b c d e f g h i j k l"
LONG_ECHO = f"echo: {LONG_PROMPT}"


class TestContinuousDispatch:
    def test_deploy_builds_continuous_engine_by_default(self):
        config = ServingConfig(enabled=True)
        _, _, scheduler = make_stack(config, lambda: GatedModel())
        try:
            assert isinstance(scheduler, RequestScheduler)
            assert scheduler.stats()["mode"] == "continuous"
        finally:
            scheduler.close()

    def test_there_is_no_mode_knob(self):
        with pytest.raises(TypeError):
            ServingConfig(enabled=True, mode="continuous")

    def test_there_is_no_window_knob(self):
        with pytest.raises(TypeError):
            ServingConfig(enabled=True, batch_window_ms=1.0)

    def test_idle_request_dispatches_without_waiting(self, registry):
        """No timer stands between an idle engine and a lone request:
        it dispatches on a clock that never advances."""
        controller, _, _ = make_stack(ServingConfig(), lambda: GatedModel())
        scheduler = RequestScheduler(
            controller, ServingConfig(enabled=True), clock=lambda: 0.0
        )
        try:
            pending = scheduler.submit(
                "chat", GenerationRequest("alone", task="chat")
            )
            assert pending.done.wait(timeout=5.0)
            assert pending.response.text == "echo: alone"
        finally:
            scheduler.close()
        waits = registry.get("serving_wait_ms")
        assert waits.count(model="chat") == 1
        assert waits.sum(model="chat") == 0

    def test_stats_carry_every_key_their_readers_index(self):
        """``benchmarks/e2e/rounds.py::program_counters`` indexes
        ``stats()`` without defaults (the harness is frozen and a
        missing key crashes the run) and ``cli.render_serving_stats``
        prints one row per key: both lists are pinned here."""
        from repro.cli import render_serving_stats

        harness_keys = {
            "dispatched_requests",
            "dispatched_batches",
            "admitted_into_flight",
            "shed",
            "expired",
        }
        cli_rows = {
            "queue_depth": "queue depth",
            "inflight_batches": "in-flight batches",
            "inflight_members": "in-flight members",
            "occupancy": "batch occupancy",
            "admitted_into_flight": "admitted into flight",
            "dispatched_batches": "dispatched batches",
            "dispatched_requests": "dispatched requests",
            "mean_batch_size": "mean batch size",
            "shed": "shed",
            "expired": "expired",
            "cancelled": "cancelled streams",
        }
        config = ServingConfig(enabled=True)
        _, client, scheduler = make_stack(config, lambda: GatedModel())
        try:
            stats = scheduler.stats()
            assert set(stats) == harness_keys | set(cli_rows) | {"mode"}
            served = client.serving_stats()
            assert served == stats
            rendered = render_serving_stats(served)
        finally:
            scheduler.close()
        assert rendered.splitlines()[0] == "mode: continuous"
        for label in cli_rows.values():
            assert label in rendered

    def test_stream_delivers_canonical_chunks(self):
        config = ServingConfig(enabled=True)
        _, _, scheduler = make_stack(config, lambda: GatedModel())
        try:
            chunks = drain(
                scheduler.astream(
                    "chat", GenerationRequest("hello world", task="chat")
                )
            )
            assert chunks == chunk_text("echo: hello world")
            assert "".join(chunks) == "echo: hello world"
        finally:
            scheduler.close()


class TestTraceContext:
    """A cohort of one runs in its caller's ``Context``, as a direct
    call would; a fused batch serves many callers, so its spans are
    roots of their own."""

    @pytest.fixture
    def tracer(self):
        fresh = Tracer()
        previous = set_tracer(fresh)
        yield fresh
        set_tracer(previous)

    def test_cohort_of_one_nests_under_the_caller(self, tracer):
        _, client, _ = make_stack(ServingConfig(), lambda: GatedModel())
        with tracer.span("caller") as caller:
            assert client.generate("chat", "one", task="chat") == "echo: one"
            assert asyncio.run(
                client.agenerate("chat", "two", task="chat")
            ) == "echo: two"
        spans = tracer.trace(caller.trace_id)
        generates = [s for s in spans if s.name == "smmf.generate"]
        workers = [s for s in spans if s.name == "smmf.worker"]
        assert len(generates) == len(workers) == 2
        assert "cache.lookup" not in {s.name for s in spans}
        # The cache lookup opens no span: the caller's span is current
        # where the cohort of one runs, and carries both misses.
        assert caller.attributes["cache.inference"] == "miss,miss"
        assert {s.parent_id for s in generates} == {caller.span_id}
        assert {s.parent_id for s in workers} == {
            s.span_id for s in generates
        }
        assert tracer.trace_ids() == [caller.trace_id]

    def test_fused_batch_span_is_a_root(self, tracer):
        model = GatedModel()
        _, _, scheduler = make_stack(
            ServingConfig(pool_width=1), lambda: model
        )
        gate = pin_the_only_slot(scheduler, model)
        with tracer.span("caller") as caller:
            cohort = [
                scheduler.submit(
                    "chat",
                    GenerationRequest(f"q{i}", task="chat", max_tokens=128),
                )
                for i in range(3)
            ]
        model.release.set()
        for pending in [gate, *cohort]:
            assert pending.done.wait(timeout=5.0)
        batches = [
            span
            for trace_id in tracer.trace_ids()
            for span in tracer.trace(trace_id)
            if span.name == "smmf.batch"
        ]
        assert [span.attributes["batch.size"] for span in batches] == [3]
        assert batches[0].parent_id is None
        assert batches[0].trace_id != caller.trace_id
        assert [s.name for s in tracer.trace(caller.trace_id)] == ["caller"]


class TestMidBatchAdmission:
    def test_queued_requests_join_the_live_batch(self, registry):
        """Requests arriving while a fused pass is in flight are
        admitted into the SAME execution between steps instead of
        waiting for a whole new batch to form.

        The first (streaming) member's pass is held at the gate;
        two compatible requests queue behind it; opening the gate lets
        the execution admit both and compute them in one second fused
        pass: batch sizes ``[1, 2]``, never three single calls.
        """
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            max_batch_size=8,
            pool_width=1,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            model.release.clear()
            first = scheduler.submit_stream(
                "chat", GenerationRequest("first", task="chat")
            )
            # The execution's only member is now inside generate_batch.
            assert model.entered.wait(timeout=5.0)
            late = [
                scheduler.submit(
                    "chat", GenerationRequest(f"late-{i}", task="chat")
                )
                for i in range(2)
            ]
            model.release.set()
            for pending in late:
                assert pending.done.wait(timeout=5.0)
                assert pending.error is None
            assert [p.response.text for p in late] == [
                "echo: late-0",
                "echo: late-1",
            ]
            assert "".join(first.stream) == "echo: first"
            # One fused pass for the head, one for the admitted pair.
            assert model.batch_sizes == [1, 2]
            assert model.single_calls == 0
            stats = scheduler.stats()
            assert stats["admitted_into_flight"] == 2
            assert stats["dispatched_batches"] == 2
            assert stats["dispatched_requests"] == 3
        finally:
            scheduler.close()


class TestCancellation:
    def test_cancel_frees_worker_slot_mid_generation(self, registry):
        """A consumer walking away releases the member's worker slot
        immediately — while most of its output is still undelivered —
        and the cancellation is visible on every ledger: worker
        in-flight gauge, worker cancel counter, scheduler stats, and
        ``serving_requests_total{outcome=cancelled}``.
        """
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            pool_width=1,
            stream_buffer=2,
        )
        controller, _, scheduler = make_stack(config, lambda: model)
        worker = controller.workers("chat")[0].worker
        try:
            pending = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
            stream = pending.stream
            # One chunk read + two buffered still leaves most of the
            # response pending, so the member provably cannot finish:
            # the worker slot is held until we act.
            assert stream.get(timeout=5.0) == chunk_text(LONG_ECHO)[0]
            assert worker.load_snapshot()[0] == 1
            stream.cancel()
            assert stream.released.wait(timeout=5.0)
            assert worker.load_snapshot()[0] == 0
            assert worker.stats_snapshot()["cancelled_streams"] == 1
            stats = scheduler.stats()
            assert stats["cancelled"] == 1
            assert stats["inflight_members"] == 0
            counter = registry.get("serving_requests_total")
            assert counter.value(model="chat", outcome="cancelled") == 1
        finally:
            scheduler.close()

    def test_freed_seat_serves_the_next_request(self):
        """After a cancellation the pool slot is genuinely reusable:
        a follow-up request dispatches and completes normally."""
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            pool_width=1,
            stream_buffer=2,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            pending = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
            assert pending.stream.get(timeout=5.0) is not None
            pending.stream.cancel()
            assert pending.stream.released.wait(timeout=5.0)
            response = scheduler.schedule(
                "chat", GenerationRequest("next", task="chat")
            )
            assert response.text == "echo: next"
        finally:
            scheduler.close()


class TestBackpressure:
    def test_slow_consumer_stalls_only_its_own_stream(self):
        """Two streams fuse into one batch; one consumer never reads.
        Its buffer pins at exactly ``stream_buffer`` chunks while its
        co-member streams to completion — backpressure is per-stream,
        not per-batch.
        """
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            max_batch_size=2,
            pool_width=1,
            stream_buffer=2,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            pin_the_only_slot(scheduler, model)
            slow = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
            fast = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
            model.release.set()
            # Drain the fast stream to completion without ever
            # touching the slow one.
            fast_chunks = list(fast.stream)
            assert "".join(fast_chunks) == LONG_ECHO
            assert fast.done.wait(timeout=5.0)
            # Both members computed in ONE fused pass.
            assert model.batch_sizes == [2]
            # The slow member is parked at its buffer bound, unfinished.
            assert not slow.done.is_set()
            assert slow.stream.buffered() == config.stream_buffer
            # A consumer finally arriving drains it completely.
            assert "".join(slow.stream) == LONG_ECHO
            assert slow.done.wait(timeout=5.0)
        finally:
            scheduler.close()


class TestTenancyAdmission:
    def test_throttle_hook_gates_the_async_path(self):
        """The tenancy admission hook runs synchronously in the
        submitting task, so ``contextvars`` tenant scopes govern
        ``aschedule`` exactly as they do the sync facade."""
        model = GatedModel()
        config = ServingConfig(enabled=True)
        _, _, scheduler = make_stack(config, lambda: model)

        def hook(model_name, request):
            from repro.tenancy.context import current_tenant

            if current_tenant() == "globex":
                raise TenantThrottled(
                    "globex", "tenant globex over quota", retry_after=0.5
                )

        scheduler.set_admission_hook(hook)

        async def main():
            with tenant_scope("globex"):
                with pytest.raises(TenantThrottled) as excinfo:
                    await scheduler.aschedule(
                        "chat", GenerationRequest("denied", task="chat")
                    )
                assert excinfo.value.retry_after == 0.5
            with tenant_scope("acme"):
                response = await scheduler.aschedule(
                    "chat", GenerationRequest("granted", task="chat")
                )
            return response

        try:
            response = asyncio.run(main())
        finally:
            scheduler.close()
        assert response.text == "echo: granted"
        # The throttled request never reached the queue or model.
        assert scheduler.stats()["dispatched_requests"] == 1


class TestFacadeParity:
    def test_sync_async_and_stream_paths_agree(self):
        """The same workload answers identically through the blocking
        facade, the awaitable facade, and a joined stream — and both
        facades coalesce into one fused batch each."""
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            max_batch_size=4,
            pool_width=1,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            prompts = [f"p{i}" for i in range(4)]
            pin_the_only_slot(scheduler, model)
            sync_pendings = [
                scheduler.submit(
                    "chat", GenerationRequest(p, task="chat")
                )
                for p in prompts
            ]
            model.release.set()
            for pending in sync_pendings:
                assert pending.done.wait(timeout=5.0)
            sync_texts = [p.response.text for p in sync_pendings]

            async def main():
                tasks = [
                    asyncio.ensure_future(
                        scheduler.aschedule(
                            "chat", GenerationRequest(p, task="chat")
                        )
                    )
                    for p in prompts
                ]
                # One turn of the loop runs each task through its
                # (synchronous) admission, up to the await.
                await asyncio.sleep(0)
                assert scheduler.queue_depth() == 4
                model.release.set()
                return await asyncio.gather(*tasks)

            pin_the_only_slot(scheduler, model)
            async_texts = [r.text for r in asyncio.run(main())]
            assert sync_texts == async_texts
            assert sync_texts == [f"echo: {p}" for p in prompts]
            assert model.batch_sizes == [4, 4]

            streamed = "".join(
                drain(
                    scheduler.astream(
                        "chat", GenerationRequest("p0", task="chat")
                    )
                )
            )
            assert streamed == sync_texts[0]
        finally:
            scheduler.close()


class LeaseCrashModel(GatedModel):
    """A replica that breaks *after* its lease is granted.

    ``leases`` is shared by every replica of one deployment and the
    first replica to be leased runs ``sabotage(model)``. By then
    ``ModelWorker.start_batch`` has passed its liveness check, so
    whatever the sabotage breaks surfaces in ``WorkerExecution.step``
    — the crash is mid-run, not at start.
    """

    def __init__(self, tag, leases, sabotage):
        super().__init__(tag=tag)
        self.leases = leases
        self.sabotage = sabotage

    def start_batch(self, requests):
        self.leases.append(self)
        if len(self.leases) == 1:
            self.sabotage(self)
        return super().start_batch(requests)


def make_crash_stack(config, sabotage):
    """Two tagged replicas behind one gate; ``sabotage(worker,
    workers)`` runs once, on the first replica to be leased. One crash
    opens a replica's breaker. Returns ``(controller, scheduler,
    models, leases)``."""
    models, leases = [], []

    def on_first_lease(model):
        workers = [record.worker for record in controller.workers("chat")]
        sabotage(
            next(worker for worker in workers if worker.model is model),
            workers,
        )

    def factory():
        model = LeaseCrashModel(
            f"replica-{len(models)}", leases, on_first_lease
        )
        if models:  # one gate for the whole deployment
            model.entered = models[0].entered
            model.release = models[0].release
        models.append(model)
        return model

    controller, _, scheduler = make_stack(
        config,
        factory,
        replicas=2,
        resilience=ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=1)
        ),
    )
    return controller, scheduler, models, leases


class TestMidRunFailover:
    """A replica dying between the lease and a fused pass: every
    uncomputed member is served by another replica, exactly once."""

    def test_step_crash_moves_every_member_to_the_survivor(self, registry):
        config = ServingConfig(enabled=True, pool_width=1)
        controller, scheduler, models, leases = make_crash_stack(
            config, lambda worker, workers: worker.inject_failures(1)
        )
        try:
            gate = pin_the_only_slot(scheduler, models[0])
            streamed = scheduler.submit_stream(
                "chat", GenerationRequest("streamed", task="chat")
            )
            plain = [
                scheduler.submit(
                    "chat", GenerationRequest(f"plain-{i}", task="chat")
                )
                for i in range(2)
            ]
            models[0].release.set()
            for pending in [gate, *plain]:
                assert pending.done.wait(timeout=5.0)
                assert pending.error is None
            crashed = leases[0]
            survivor = next(m for m in models if m is not crashed)
            assert [p.response.text for p in plain] == [
                f"{survivor.tag}: plain-0",
                f"{survivor.tag}: plain-1",
            ]
            assert "".join(streamed.stream) == f"{survivor.tag}: streamed"
            assert streamed.done.wait(timeout=5.0)
            assert streamed.error is None
        finally:
            scheduler.close()
        workers = {
            record.worker.model: record.worker
            for record in controller.workers("chat")
        }
        # The crash landed in the step, charged for its three members,
        # before the replica's model saw anything.
        assert crashed.batch_sizes == []
        assert workers[crashed].failed == 3
        assert workers[crashed].inflight == 0
        opens = {
            model: controller.breakers.breaker(worker.worker_id).opens
            for model, worker in workers.items()
        }
        assert opens == {crashed: 1, survivor: 0}
        assert survivor.batch_sizes == [3]
        assert workers[survivor].inflight == 0
        assert sum(worker.served for worker in workers.values()) == 4
        outcomes = registry.get("serving_requests_total")
        assert outcomes.value(model="chat", outcome="admitted") == 4
        assert outcomes.value(model="chat", outcome="completed") == 4
        assert outcomes.value(model="chat", outcome="error") == 0

    def test_nothing_joins_the_execution_whose_replica_died(self):
        """The crash-injected replica's breaker is open but the replica
        would still answer, so a request admitted into its execution
        shows up as that replica's text. The second armed fault keeps
        its health probe failing."""
        config = ServingConfig(enabled=True, pool_width=2, stream_buffer=2)
        _, scheduler, models, leases = make_crash_stack(
            config, lambda worker, workers: worker.inject_failures(2)
        )
        try:
            streamed = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
            head = streamed.stream.get(timeout=5.0)
            crashed = leases[0]
            survivor = next(m for m in models if m is not crashed)
            # Parked at its buffer bound: the execution serving the
            # stream is still live when the next request arrives.
            late = scheduler.schedule(
                "chat", GenerationRequest("late", task="chat")
            )
            assert late.text == f"{survivor.tag}: late"
            assert head + "".join(streamed.stream) == (
                f"{survivor.tag}: {LONG_PROMPT}"
            )
        finally:
            scheduler.close()
        assert crashed.batch_sizes == []
        assert crashed.single_calls == 0

    def test_outage_after_the_lease_fails_like_one_before_it(self):
        config = ServingConfig(enabled=True, pool_width=1)
        _, scheduler, models, _ = make_crash_stack(
            config,
            lambda worker, workers: [each.kill() for each in workers],
        )
        try:
            gate = pin_the_only_slot(scheduler, models[0])
            streamed = scheduler.submit_stream(
                "chat", GenerationRequest("streamed", task="chat")
            )
            plain = scheduler.submit(
                "chat", GenerationRequest("plain", task="chat")
            )
            models[0].release.set()
            assert gate.done.wait(timeout=5.0) and gate.error is None
            for pending in (streamed, plain):
                assert pending.done.wait(timeout=5.0)
            with pytest.raises(SmmfError):
                list(streamed.stream)
            # Both replicas are down now: this one fails at the lease.
            at_start = scheduler.submit_stream(
                "chat", GenerationRequest("late", task="chat")
            )
            assert at_start.done.wait(timeout=5.0)
            for pending in (streamed, plain, at_start):
                assert type(pending.error) is SmmfError
                mapped = ApiServer._guard(pending.error)
                assert mapped.status == 503
                assert mapped.body["code"] == "smmf_unavailable"
        finally:
            scheduler.close()
        assert all(model.batch_sizes == [] for model in models)
