"""Regression tests for the satellite bugfixes.

- A poison request in a coalesced batch fails alone; its fifteen
  cohabiting waiters still get their answers.
- A 429's ``retry_after`` hint actually reaches the client's retry
  policy (shed requests wait the hint out instead of failing).
- ``kill()``/``restart()`` mutate worker state under the worker lock.
- A stale cache entry can answer the turn when the stack is down.
- A half-open trial that raises neither a crash nor a model error
  hands its slot back instead of wedging the breaker.
- A degraded answer (served by the fallback model) is never cached
  under the requested model's key.
"""

import asyncio
import threading

import pytest

from repro.cache.config import CacheConfig
from repro.cache.manager import CacheManager, set_cache_manager
from repro.llm.base import GenerationRequest, LLMError
from repro.resilience import (
    HALF_OPEN,
    BreakerConfig,
    ResilienceConfig,
    RetryConfig,
)
from repro.serving import ServingConfig
from repro.smmf import ModelSpec, deploy
from repro.smmf.api_server import ApiResponse, ApiServer
from repro.smmf.client import ClientError, LLMClient
from repro.smmf.controller import ModelController, SmmfError
from repro.smmf.worker import ModelWorker

from tests.resilience.conftest import (
    EchoModel,
    FakeClock,
    PoisonModel,
    Sleeper,
)


class GatedPoisonModel(PoisonModel):
    """PoisonModel whose prompt ``"gate"`` parks until released."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def complete(self, request):
        if request.prompt == "gate":
            self.entered.set()
            assert self.release.wait(timeout=5.0), "gate never released"
        return super().complete(request)


class TestPoisonBatchIsolation:
    def test_poison_request_fails_alone_in_a_16_batch(self, registry):
        """One LLMError in a fused batch of 16 must reject exactly one
        waiter — the other fifteen re-dispatch individually and
        succeed. The sixteen queue behind a gated request that pins
        the only slot, so they form one cohort."""
        model = GatedPoisonModel()
        config = ServingConfig(
            enabled=True,
            max_batch_size=16,
            pool_width=1,
        )
        controller, _client = deploy(
            [ModelSpec("chat", lambda: model, latency_ms=0.0)],
            serving=config,
        )
        scheduler = controller.scheduler
        try:
            gate = scheduler.submit(
                "chat",
                GenerationRequest("gate", task="chat", max_tokens=128),
            )
            assert model.entered.wait(timeout=5.0)
            prompts = [f"fine-{i}" for i in range(15)] + ["poison pill"]
            pendings = [
                scheduler.submit(
                    "chat", GenerationRequest(prompt, task="chat")
                )
                for prompt in prompts
            ]
            model.release.set()
            for pending in [gate, *pendings]:
                assert pending.done.wait(timeout=5.0)
            assert gate.error is None
            good, bad = pendings[:15], pendings[15]
            for pending, prompt in zip(good, prompts):
                assert pending.error is None
                assert pending.response.text == f"echo: {prompt}"
            assert isinstance(bad.error, LLMError)
            isolations = registry.get("serving_batch_isolations_total")
            assert isolations is not None and isolations.total() == 1
            outcomes = registry.get("serving_requests_total")
            assert outcomes.value(model="chat", outcome="completed") == 16
            assert outcomes.value(model="chat", outcome="error") == 1
        finally:
            scheduler.close()

    def test_single_poison_request_needs_no_isolation(self, registry):
        model = PoisonModel()
        config = ServingConfig(enabled=True, pool_width=1)
        controller, _client = deploy(
            [ModelSpec("chat", lambda: model, latency_ms=0.0)],
            serving=config,
        )
        scheduler = controller.scheduler
        try:
            pending = scheduler.submit(
                "chat", GenerationRequest("poison", task="chat")
            )
            assert pending.done.wait(timeout=5.0)
            assert isinstance(pending.error, LLMError)
            isolations = registry.get("serving_batch_isolations_total")
            assert isolations.total() == 0
        finally:
            scheduler.close()


class _BuggyModel(EchoModel):
    """Echoes, except that a ``"bug"`` prompt raises a plain
    exception: neither a worker crash nor an :class:`LLMError`."""

    def complete(self, request):
        if request.prompt == "bug":
            raise RuntimeError("model bug")
        return super().complete(request)


class TestHalfOpenTrialSlot:
    def test_unexpected_error_on_the_trial_releases_the_slot(self):
        controller = ModelController(
            resilience=ResilienceConfig(
                retry=RetryConfig(max_attempts=1),
                breaker=BreakerConfig(
                    failure_threshold=1, reset_timeout_s=5.0
                ),
            )
        )
        worker = ModelWorker(_BuggyModel(), latency_ms=0.0)
        controller.register_worker(worker, latency_ms=0.0)
        worker.inject_failures(1)
        with pytest.raises(SmmfError):
            controller.generate("chat", GenerationRequest("x"))
        controller.advance_clock(5.0)
        assert controller.breakers.state(worker.worker_id) == HALF_OPEN
        with pytest.raises(RuntimeError, match="model bug"):
            controller.generate("chat", GenerationRequest("bug"))
        # The trial ended without a verdict; the next request takes the
        # slot it handed back and its success closes the breaker.
        response = controller.generate("chat", GenerationRequest("hi"))
        assert response.text == "echo: hi"


class _ScriptedServer:
    """Stands in for the API server: replays a list of responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def handle(self, request):
        self.requests.append(request)
        return self.responses.pop(0)


def _ok(text="served"):
    return ApiResponse(200, {"text": text, "model": "chat"})


class TestRetryAfterWiring:
    def make_client(self, responses, **retry_overrides):
        retry = dict(max_attempts=3, base_delay_s=0.05, jitter=0.0)
        retry.update(retry_overrides)
        sleeper = Sleeper()
        client = LLMClient(
            _ScriptedServer(responses),
            resilience=ResilienceConfig(retry=RetryConfig(**retry)),
            sleep=sleeper,
        )
        return client, sleeper

    def test_shed_request_waits_out_the_hint_then_succeeds(self):
        client, sleeper = self.make_client(
            [
                ApiResponse(
                    429, {"error": "shed", "retry_after": 0.8}
                ),
                _ok(),
            ]
        )
        assert client.generate("chat", "hello", task="chat") == "served"
        # The server's promise floors the backoff: 0.8 > base 0.05.
        assert sleeper.delays == pytest.approx([0.8])

    def test_transient_503_is_retried(self):
        client, sleeper = self.make_client(
            [ApiResponse(503, {"error": "restarting"}), _ok()]
        )
        assert client.generate("chat", "hello", task="chat") == "served"
        assert sleeper.delays == pytest.approx([0.05])

    def test_terminal_errors_are_not_retried(self):
        client, sleeper = self.make_client(
            [ApiResponse(422, {"error": "bad task"})]
        )
        with pytest.raises(ClientError) as excinfo:
            client.generate("chat", "hello", task="chat")
        assert excinfo.value.status == 422
        assert sleeper.delays == []

    def test_attempts_exhausted_surfaces_the_last_rejection(self):
        client, sleeper = self.make_client(
            [
                ApiResponse(429, {"error": "shed", "retry_after": 0.1}),
                ApiResponse(429, {"error": "shed", "retry_after": 0.2}),
                ApiResponse(429, {"error": "shed", "retry_after": 0.3}),
            ]
        )
        with pytest.raises(ClientError) as excinfo:
            client.generate("chat", "hello", task="chat")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 0.3
        assert sleeper.delays == pytest.approx([0.1, 0.2])

    def test_without_resilience_no_retry_happens(self):
        server = _ScriptedServer(
            [ApiResponse(429, {"error": "shed", "retry_after": 0.1}),
             _ok()]
        )
        client = LLMClient(
            server,
            resilience=ResilienceConfig(retry=RetryConfig(max_attempts=1)),
        )
        with pytest.raises(ClientError):
            client.generate("chat", "hello", task="chat")
        assert len(server.requests) == 1


class TestStaleServe:
    def make_stack(self, serve_stale=True):
        """A one-replica stack whose inference cache expires entries
        after 10 fake-clock seconds."""
        clock = FakeClock()
        set_cache_manager(
            CacheManager(
                CacheConfig().with_tier("inference", ttl_seconds=10.0),
                clock=clock,
            )
        )
        resilience = ResilienceConfig(
            retry=RetryConfig(max_attempts=1),
            serve_stale=serve_stale,
        )
        controller, client = deploy(
            [ModelSpec("chat", lambda: EchoModel(), latency_ms=0.0)],
            resilience=resilience,
        )
        return controller, client, clock

    def test_expired_entry_answers_when_the_stack_is_down(
        self, registry
    ):
        controller, client, clock = self.make_stack()
        answer = client.generate("chat", "question one", task="chat")
        assert answer == "echo: question one"
        controller.workers("chat")[0].worker.kill()
        clock.advance(60.0)  # the cached answer is now expired
        # Same request again: the cache misses (TTL), the stack 503s,
        # and the expired entry serves the turn — marked degraded.
        again = client.generate("chat", "question one", task="chat")
        assert again == answer
        assert client.stale_serves == 1
        counter = registry.get("resilience_stale_served_total")
        assert counter is not None and counter.total() == 1

    def test_fresh_entry_answers_normally_not_stale(self):
        controller, client, _clock = self.make_stack()
        answer = client.generate("chat", "question one", task="chat")
        controller.workers("chat")[0].worker.kill()
        # Within the TTL the plain cache hit answers; the stale path
        # and its degraded marker never engage.
        assert (
            client.generate("chat", "question one", task="chat")
            == answer
        )
        assert client.stale_serves == 0

    def test_uncached_request_still_fails(self):
        controller, client, _clock = self.make_stack()
        controller.workers("chat")[0].worker.kill()
        with pytest.raises(ClientError) as excinfo:
            client.generate("chat", "never seen", task="chat")
        assert excinfo.value.status == 503
        assert client.stale_serves == 0

    def test_disabled_serve_stale_fails_on_expired_entry(self):
        controller, client, clock = self.make_stack(serve_stale=False)
        client.generate("chat", "question one", task="chat")
        controller.workers("chat")[0].worker.kill()
        clock.advance(60.0)
        with pytest.raises(ClientError):
            client.generate("chat", "question one", task="chat")
        assert client.stale_serves == 0


class TestWorkerLockDiscipline:
    def test_kill_restart_inject_race_safely(self):
        worker = ModelWorker(EchoModel(), latency_ms=0.0)
        threads_n, iterations = 6, 200
        barrier = threading.Barrier(threads_n)
        errors = []

        def churn(seed):
            try:
                barrier.wait(timeout=5.0)
                for i in range(iterations):
                    action = (seed + i) % 3
                    if action == 0:
                        worker.kill()
                    elif action == 1:
                        worker.restart()
                    else:
                        worker.inject_failures(1)
                    worker.probe()
            except Exception as exc:  # pragma: no cover - surfaced
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,))
            for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        # A final restart must leave a clean, probe-positive worker no
        # matter how the interleaving went.
        worker.restart()
        assert worker.probe()
        assert worker.alive is True
        assert worker.fail_next == 0

    def test_api_health_includes_per_worker_detail(self):
        controller, _client = deploy(
            [ModelSpec("chat", lambda: EchoModel(), latency_ms=0.0)]
        )
        body = ApiServer(controller).handle(
            type("R", (), {"method": "GET", "path": "/v1/health",
                           "body": {}})()
        ).body
        assert body["workers"] == 1
        (row,) = body["detail"]
        assert row["model"] == "chat"
        assert row["alive"] is True


class NamedModel(EchoModel):
    """Answers name the model that produced them."""

    def complete(self, request):
        return f"{self.name}: {request.prompt}"


class TestDegradedAnswersAreNotCached:
    @pytest.mark.parametrize("call", ["generate", "agenerate"])
    def test_primary_answers_again_once_it_recovers(self, call):
        manager = CacheManager()
        set_cache_manager(manager)
        controller, client = deploy(
            [
                ModelSpec(name, lambda name=name: NamedModel(name),
                          latency_ms=0.0)
                for name in ("sql", "chat")
            ],
            resilience=ResilienceConfig(
                retry=RetryConfig(max_attempts=1),
                fallback_model="chat",
            ),
        )

        def ask(prompt):
            if call == "generate":
                return client.generate("sql", prompt)
            return asyncio.run(client.agenerate("sql", prompt))

        primary = controller.workers("sql")[0].worker
        primary.kill()
        assert ask("q") == "chat: q"
        assert client.degraded_serves == 1
        primary.restart()
        controller.advance_clock(60.0)  # past the probe interval
        assert ask("fresh") == "sql: fresh"
        # The repeat reaches the recovered primary: the fallback's
        # answer was handed to its caller but never stored.
        assert ask("q") == "sql: q"
        assert client.degraded_serves == 1
        assert len(manager.store("inference")) == 2
