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
from repro.serving import RequestScheduler, ServingConfig
from repro.smmf import ModelSpec, deploy
from repro.tenancy.context import tenant_scope
from repro.tenancy.quotas import TenantThrottled


class GatedModel(LanguageModel):
    """Echo model whose batch passes can be held at a gate."""

    def __init__(self, name="chat", capabilities=("chat", "qa")):
        super().__init__(name, frozenset(capabilities))
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
        return f"echo: {request.prompt}"

    def generate_batch(self, requests):
        with self.lock:
            self.batch_sizes.append(len(requests))
        self.entered.set()
        assert self.release.wait(timeout=5.0), "gate never released"
        return [
            GenerationResponse(
                text=f"echo: {request.prompt}",
                model=self.name,
                prompt_tokens=1,
                completion_tokens=1,
            )
            for request in requests
        ]


def make_stack(config, model_factory, replicas=1, name="chat"):
    controller, client = deploy(
        [ModelSpec(name, model_factory, replicas=replicas, latency_ms=0.0)],
        serving=config,
    )
    return controller, client, controller.scheduler


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
            assert served == {"enabled": True, **stats}
            rendered = render_serving_stats(served)
        finally:
            scheduler.close()
        assert rendered.splitlines()[0] == "mode: continuous"
        for label in cli_rows.values():
            assert label in rendered

    def test_stream_delivers_canonical_chunks(self):
        config = ServingConfig(enabled=True, batch_window_ms=0.0)
        _, _, scheduler = make_stack(config, lambda: GatedModel())
        try:
            chunks = list(
                scheduler.stream(
                    "chat", GenerationRequest("hello world", task="chat")
                )
            )
            assert chunks == chunk_text("echo: hello world")
            assert "".join(chunks) == "echo: hello world"
        finally:
            scheduler.close()


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
            batch_window_ms=0.0,
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
        ``serving_stream_cancelled_total``.
        """
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            batch_window_ms=0.0,
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
            counter = registry.get("serving_stream_cancelled_total")
            assert counter is not None
            assert counter.value(model="chat") == 1
        finally:
            scheduler.close()

    def test_freed_seat_serves_the_next_request(self):
        """After a cancellation the pool slot is genuinely reusable:
        a follow-up request dispatches and completes normally."""
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            batch_window_ms=0.0,
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
            batch_window_ms=10_000.0,
            max_batch_size=2,
            pool_width=1,
            stream_buffer=2,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            slow = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
            fast = scheduler.submit_stream(
                "chat", GenerationRequest(LONG_PROMPT, task="chat")
            )
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
        config = ServingConfig(enabled=True, batch_window_ms=0.0)
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
        # The throttled request never reached the queue or model. Read
        # after close(): the engine counts a dispatch just after it
        # resolves the waiter, so an earlier read can still see 0.
        assert scheduler.stats()["dispatched_requests"] == 1


class TestFacadeParity:
    def test_sync_async_and_stream_paths_agree(self):
        """The same workload answers identically through the blocking
        facade, the awaitable facade, and a joined stream — and both
        facades coalesce into one fused batch each."""
        model = GatedModel()
        config = ServingConfig(
            enabled=True,
            batch_window_ms=10_000.0,
            max_batch_size=4,
            pool_width=1,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            prompts = [f"p{i}" for i in range(4)]
            sync_pendings = [
                scheduler.submit(
                    "chat", GenerationRequest(p, task="chat")
                )
                for p in prompts
            ]
            for pending in sync_pendings:
                assert pending.done.wait(timeout=5.0)
            sync_texts = [p.response.text for p in sync_pendings]

            async def main():
                return await asyncio.gather(
                    *(
                        scheduler.aschedule(
                            "chat", GenerationRequest(p, task="chat")
                        )
                        for p in prompts
                    )
                )

            async_texts = [r.text for r in asyncio.run(main())]
            assert sync_texts == async_texts
            assert sync_texts == [f"echo: {p}" for p in prompts]
            assert model.batch_sizes == [4, 4]

            streamed = "".join(
                scheduler.stream(
                    "chat", GenerationRequest("p0", task="chat")
                )
            )
            assert streamed == sync_texts[0]
        finally:
            scheduler.close()
