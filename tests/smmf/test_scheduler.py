"""Tests for the serving scheduler: coalescing, backpressure, deadlines.

Every concurrency assertion here is driven by ``threading.Event`` /
``Barrier`` gates and the scheduler's injectable clock — no sleeps, so
the tests are deterministic on a loaded CI box. The trick throughout:
``pool_width=1`` plus a gated model pins the single dispatch slot, so
the admission queue can be filled to an exact, known state before the
gate opens.
"""

import threading

import pytest

from repro.core import DBGPT
from repro.llm import ChatModel
from repro.llm.base import (
    GenerationRequest,
    GenerationResponse,
    LanguageModel,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serving import (
    DeadlineExceeded,
    LatencySimModel,
    RequestScheduler,
    SchedulerClosed,
    SchedulerOverloaded,
    ServingConfig,
    shape_key,
)
from repro.smmf import ModelController, ModelSpec, ModelWorker, deploy
from repro.smmf.client import ClientError


class RecordingModel(LanguageModel):
    """Echo model with call accounting and optional execution gates.

    ``release`` starts open; closing it makes any execution block (and
    signal ``entered``), which lets tests hold the dispatch pool busy
    while they arrange the admission queue into a known state.
    """

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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


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


class TestShapeKey:
    def test_compatible_iff_model_task_and_budget_match(self):
        a = GenerationRequest("p1", task="chat", max_tokens=64)
        b = GenerationRequest("p2", task="chat", max_tokens=64)
        c = GenerationRequest("p3", task="chat", max_tokens=128)
        d = GenerationRequest("p4", task="qa", max_tokens=64)
        assert shape_key("m", a) == shape_key("m", b)
        assert shape_key("m", a) != shape_key("m", c)
        assert shape_key("m", a) != shape_key("m", d)
        assert shape_key("m", a) != shape_key("other", a)

    def test_missing_task_normalizes(self):
        bare = GenerationRequest("p", max_tokens=64)
        assert shape_key("m", bare) == ("m", "", 64)


class TestCoalescing:
    def test_compatible_requests_fuse_into_one_batch(self, registry):
        """Three compatible submissions that queued while the slot
        was busy dispatch as ONE model call when it frees."""
        model = RecordingModel()
        config = ServingConfig(
            enabled=True,
            max_batch_size=3,
            pool_width=1,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            gate = pin_the_only_slot(scheduler, model)
            pendings = [
                scheduler.submit(
                    "chat",
                    GenerationRequest(f"prompt-{i}", task="chat"),
                )
                for i in range(3)
            ]
            model.release.set()
            for pending in [gate, *pendings]:
                assert pending.done.wait(timeout=5.0)
            assert [p.response.text for p in pendings] == [
                "echo: prompt-0",
                "echo: prompt-1",
                "echo: prompt-2",
            ]
            assert model.batch_sizes == [3]
            assert model.single_calls == 1  # the gate
            stats = scheduler.stats()
            assert stats["dispatched_batches"] == 2
            assert stats["dispatched_requests"] == 4
            assert stats["mean_batch_size"] == 2.0
            batch_hist = registry.get("serving_batch_size")
            assert batch_hist is not None
        finally:
            scheduler.close()

    def test_incompatible_requests_do_not_fuse(self):
        """A differing token budget splits the queue into two batches,
        preserving arrival order within each."""
        model = RecordingModel()
        config = ServingConfig(
            enabled=True,
            max_batch_size=8,
            pool_width=1,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            model.release.clear()
            gate = scheduler.submit(
                "chat", GenerationRequest("gate", task="chat")
            )
            assert model.entered.wait(timeout=5.0)
            # The pool's only slot is pinned; everything below queues.
            matching = [
                scheduler.submit(
                    "chat",
                    GenerationRequest(f"match-{i}", task="chat",
                                      max_tokens=64),
                )
                for i in range(2)
            ]
            odd = scheduler.submit(
                "chat",
                GenerationRequest("odd", task="chat", max_tokens=128),
            )
            model.release.set()
            for pending in [gate, *matching, odd]:
                assert pending.done.wait(timeout=5.0)
                assert pending.error is None
            # gate ran alone; the two matching ones fused; odd ran solo.
            assert model.batch_sizes == [2]
            assert model.single_calls == 2
            assert [p.response.text for p in matching] == [
                "echo: match-0",
                "echo: match-1",
            ]
        finally:
            scheduler.close()


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self, registry):
        model = RecordingModel()
        config = ServingConfig(
            enabled=True,
            queue_capacity=2,
            max_batch_size=1,
            pool_width=1,
        )
        _, _, scheduler = make_stack(config, lambda: model)
        try:
            model.release.clear()
            first = scheduler.submit(
                "chat", GenerationRequest("r0", task="chat")
            )
            assert model.entered.wait(timeout=5.0)
            queued = [
                scheduler.submit(
                    "chat", GenerationRequest(f"r{i}", task="chat")
                )
                for i in (1, 2)
            ]
            with pytest.raises(SchedulerOverloaded) as excinfo:
                scheduler.submit(
                    "chat", GenerationRequest("r3", task="chat")
                )
            assert excinfo.value.retry_after > 0
            assert scheduler.stats()["shed"] == 1
            outcomes = registry.get("serving_requests_total")
            assert outcomes.value(model="chat", outcome="shed") == 1
            assert (
                registry.get("serving_queue_depth").value() == 2
            )
            model.release.set()
            for pending in [first, *queued]:
                assert pending.done.wait(timeout=5.0)
                assert pending.error is None
        finally:
            scheduler.close()

    def test_shed_surfaces_as_429_through_the_client(self):
        model = RecordingModel()
        config = ServingConfig(
            enabled=True,
            queue_capacity=1,
            max_batch_size=1,
            pool_width=1,
        )
        _, client, scheduler = make_stack(config, lambda: model)
        try:
            model.release.clear()
            first = scheduler.submit(
                "chat", GenerationRequest("r0", task="chat")
            )
            assert model.entered.wait(timeout=5.0)
            queued = scheduler.submit(
                "chat", GenerationRequest("r1", task="chat")
            )
            with pytest.raises(ClientError) as excinfo:
                client.generate("chat", "r2", task="chat")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 0
            model.release.set()
            assert first.done.wait(timeout=5.0)
            assert queued.done.wait(timeout=5.0)
        finally:
            scheduler.close()


class TestDeadlines:
    def test_queued_request_expires_under_fake_clock(self, registry):
        """A request whose deadline passes while queued fails with
        DeadlineExceeded without ever reaching a worker."""
        clock = FakeClock()
        model = RecordingModel()
        controller = ModelController()
        controller.register_worker(ModelWorker(model, latency_ms=0.0))
        config = ServingConfig(
            enabled=True,
            max_batch_size=1,
            pool_width=1,
        )
        scheduler = RequestScheduler(controller, config, clock=clock)
        try:
            model.release.clear()
            gate = scheduler.submit(
                "chat", GenerationRequest("gate", task="chat")
            )
            assert model.entered.wait(timeout=5.0)
            doomed = scheduler.submit(
                "chat",
                GenerationRequest("doomed", task="chat"),
                timeout_s=5.0,
            )
            clock.now = 10.0
            model.release.set()
            assert doomed.done.wait(timeout=5.0)
            assert isinstance(doomed.error, DeadlineExceeded)
            assert gate.done.wait(timeout=5.0)
            assert gate.error is None
            assert scheduler.stats()["expired"] == 1
            outcomes = registry.get("serving_requests_total")
            assert outcomes.value(model="chat", outcome="expired") == 1
            # The doomed request never executed.
            assert model.single_calls == 1
        finally:
            scheduler.close()

    def test_expiry_surfaces_as_504_through_the_client(self):
        config = ServingConfig(enabled=True)
        _, client, scheduler = make_stack(
            config, lambda: ChatModel("chat")
        )
        try:
            # deadline == admission time: the dispatcher's expiry sweep
            # always runs before draining, so this can never execute.
            with pytest.raises(ClientError) as excinfo:
                client.generate("chat", "hello", task="chat",
                                timeout_s=0.0)
            assert excinfo.value.status == 504
        finally:
            scheduler.close()


class TestFailover:
    def test_whole_batch_fails_over_to_another_replica(self):
        models = []

        def factory():
            model = RecordingModel()
            models.append(model)
            return model

        config = ServingConfig(
            enabled=True,
            max_batch_size=2,
            pool_width=1,
        )
        controller, _, scheduler = make_stack(config, factory, replicas=2)
        try:
            # Round robin: the gate lands on the first registered
            # replica, so the cohort queued behind it is routed to the
            # second one first. Crash-inject that one.
            busy, idle = [r.worker for r in controller.workers("chat")]
            survivor, crashed = busy.model, idle.model
            gate = pin_the_only_slot(scheduler, survivor)
            assert busy.load_snapshot()[0] == 1
            idle.fail_next = 1
            pendings = [
                scheduler.submit(
                    "chat", GenerationRequest(f"p{i}", task="chat")
                )
                for i in range(2)
            ]
            survivor.release.set()
            for pending in [gate, *pendings]:
                assert pending.done.wait(timeout=5.0)
                assert pending.error is None
            # The crash happened before the model ran; the whole batch
            # re-dispatched on the surviving replica.
            assert crashed.batch_sizes == []
            assert survivor.batch_sizes == [2]
            assert idle.failed == 2
        finally:
            scheduler.close()

    def test_closed_scheduler_rejects_and_maps_to_503(self):
        config = ServingConfig(enabled=True)
        _, client, scheduler = make_stack(
            config, lambda: ChatModel("chat")
        )
        scheduler.close()
        with pytest.raises(SchedulerClosed):
            scheduler.submit("chat", GenerationRequest("x", task="chat"))
        with pytest.raises(ClientError) as excinfo:
            client.generate("chat", "hello", task="chat")
        assert excinfo.value.status == 503


class TestSingleFlight:
    def test_identical_inflight_prompts_collapse_to_one_worker_call(self):
        """With the inference cache on, N concurrent identical prompts
        produce exactly one model execution — the leader computes, the
        rest wait on the same in-flight entry."""
        model = RecordingModel()
        config = ServingConfig(enabled=True)
        controller, client, scheduler = make_stack(config, lambda: model)
        try:
            model.release.clear()
            results = [None] * 8
            errors = []
            barrier = threading.Barrier(8)

            def call(slot):
                try:
                    barrier.wait(timeout=5.0)
                    results[slot] = client.generate(
                        "chat", "the one prompt", task="chat"
                    )
                except Exception as exc:  # pragma: no cover - surfaced
                    errors.append(exc)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            assert model.entered.wait(timeout=5.0)
            model.release.set()
            for thread in threads:
                thread.join(timeout=5.0)
            assert not errors
            assert set(results) == {"echo: the one prompt"}
            assert model.single_calls + sum(model.batch_sizes) == 1
            worker = controller.workers("chat")[0].worker
            assert worker.served == 1
        finally:
            scheduler.close()


class TestEngineIsTheOnlyPath:
    def test_every_way_to_build_a_controller_mounts_the_engine(self):
        dbgpt = DBGPT.boot()
        controller, _ = deploy([ModelSpec("chat", lambda: ChatModel("chat"))])
        for built in (dbgpt.controller, controller, ModelController()):
            assert isinstance(built.scheduler, RequestScheduler)

    def test_serving_config_cannot_disable_the_engine(self):
        assert ServingConfig().enabled is True
        with pytest.raises(ValueError, match="cannot be disabled"):
            ServingConfig(enabled=False)

    def test_deploy_forwards_its_serving_config(self):
        config = ServingConfig(pool_width=3)
        controller, _ = deploy(
            [ModelSpec("chat", lambda: ChatModel("chat"))], serving=config
        )
        assert controller.scheduler.config is config


class TestWorkerConcurrency:
    def test_counters_are_exact_under_contention(self):
        worker = ModelWorker(LatencySimModel(latency_s=0.0), latency_ms=0.0)
        threads_n, per_thread = 8, 25
        barrier = threading.Barrier(threads_n)
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=5.0)
                for i in range(per_thread):
                    worker.handle(GenerationRequest(f"p{i}", task="chat"))
            except Exception as exc:  # pragma: no cover - surfaced
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer) for _ in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert worker.served == threads_n * per_thread
        assert worker.inflight == 0

    def test_load_snapshot_is_consistent_pair(self):
        worker = ModelWorker(ChatModel("chat"))
        worker.handle(GenerationRequest("hello"))
        assert worker.load_snapshot() == (0, 1)
