"""Tests for SMMF: workers, registry, balancing, controller, API."""

import pytest

from repro.core import DBGPT, DbGptConfig, ModelConfig
from repro.llm import ChatModel, GenerationRequest
from repro.obs.metrics import get_registry
from repro.smmf import (
    ApiRequest,
    ApiServer,
    LeastBusyBalancer,
    LLMClient,
    ModelController,
    ModelSpec,
    ModelWorker,
    RandomBalancer,
    RoundRobinBalancer,
    SmmfError,
    WorkerCrashed,
    deploy,
    model_metrics,
)
from repro.resilience import OPEN, ResilienceConfig
from repro.smmf.registry import ModelRegistry, RegistryError
from repro.smmf.client import ClientError


def chat_spec(name="chat", replicas=1, latency_ms=10.0):
    return ModelSpec(
        name, lambda: ChatModel(name), replicas=replicas, latency_ms=latency_ms
    )


class TestWorker:
    def test_handle_serves(self):
        worker = ModelWorker(ChatModel("chat"))
        response = worker.handle(GenerationRequest("hello"))
        assert response.model == "chat"
        assert worker.served == 1

    def test_failure_injection(self):
        worker = ModelWorker(ChatModel("chat"))
        worker.fail_next = 1
        with pytest.raises(WorkerCrashed):
            worker.handle(GenerationRequest("x"))
        # Recovers after the injected failure.
        worker.handle(GenerationRequest("x"))
        assert worker.failed == 1
        assert worker.served == 1

    def test_killed_worker_raises(self):
        worker = ModelWorker(ChatModel("chat"))
        worker.kill()
        with pytest.raises(WorkerCrashed):
            worker.handle(GenerationRequest("x"))
        worker.restart()
        worker.handle(GenerationRequest("x"))

    def test_worker_ids_unique(self):
        a = ModelWorker(ChatModel("chat"))
        b = ModelWorker(ChatModel("chat"))
        assert a.worker_id != b.worker_id


class TestRegistry:
    def test_register_and_lookup(self):
        registry = ModelRegistry()
        worker = ModelWorker(ChatModel("chat"))
        registry.register(worker, now=0.0)
        assert registry.model_names() == ["chat"]
        assert registry.healthy_workers("chat")[0].worker is worker

    def test_duplicate_registration_rejected(self):
        registry = ModelRegistry()
        worker = ModelWorker(ChatModel("chat"))
        registry.register(worker)
        with pytest.raises(RegistryError):
            registry.register(worker)

    def test_deregister(self):
        registry = ModelRegistry()
        worker = ModelWorker(ChatModel("chat"))
        registry.register(worker)
        registry.deregister(worker.worker_id)
        assert registry.model_names() == []

    def test_deregister_unknown(self):
        with pytest.raises(RegistryError):
            ModelRegistry().deregister("ghost")

    def test_heartbeat_sweep(self):
        registry = ModelRegistry(heartbeat_timeout=10.0)
        worker = ModelWorker(ChatModel("chat"))
        registry.register(worker, now=0.0)
        assert registry.sweep(now=5.0) == []
        stale = registry.sweep(now=11.0)
        assert stale == [worker.worker_id]
        assert registry.healthy_workers("chat") == []
        # A fresh heartbeat revives the worker.
        registry.heartbeat(worker.worker_id, now=12.0)
        assert len(registry.healthy_workers("chat")) == 1

    def test_dead_worker_not_healthy(self):
        registry = ModelRegistry()
        worker = ModelWorker(ChatModel("chat"))
        registry.register(worker)
        worker.kill()
        assert registry.healthy_workers("chat") == []


class TestBalancers:
    def make_records(self, count=3):
        registry = ModelRegistry()
        workers = [ModelWorker(ChatModel("chat")) for _ in range(count)]
        for worker in workers:
            registry.register(worker)
        return registry.healthy_workers("chat"), workers

    def test_round_robin_cycles(self):
        records, workers = self.make_records(3)
        balancer = RoundRobinBalancer()
        chosen = [balancer.choose(records).worker for _ in range(6)]
        assert chosen == workers * 2

    def test_random_seeded_deterministic(self):
        records, _ = self.make_records(3)
        a = [RandomBalancer(seed=1).choose(records).worker.worker_id for _ in [0]]
        b = [RandomBalancer(seed=1).choose(records).worker.worker_id for _ in [0]]
        assert a == b

    def test_least_busy_prefers_idle(self):
        records, workers = self.make_records(2)
        workers[0].inflight = 5
        balancer = LeastBusyBalancer()
        assert balancer.choose(records).worker is workers[1]

    def test_least_busy_tie_breaks_by_served(self):
        records, workers = self.make_records(2)
        workers[0].served = 10
        assert LeastBusyBalancer().choose(records).worker is workers[1]


class TestControllerAndFailover:
    def test_routing_spreads_round_robin(self):
        controller, client = deploy([chat_spec(replicas=3)])
        for i in range(6):
            client.generate("chat", f"hi {i}")  # distinct: no cache hits
        served = get_registry().counter("worker_requests_total")
        counts = [
            served.value(worker=r.worker.worker_id)
            for r in controller.workers("chat")
        ]
        assert counts == [2, 2, 2]

    def test_failover_retries_other_replica(self):
        controller, client = deploy([chat_spec(replicas=2)])
        records = controller.workers("chat")
        records[0].worker.fail_next = 1
        text = client.generate("chat", "hello")
        assert text
        assert model_metrics()["chat"]["retries"] == 1

    def test_all_replicas_down_raises(self):
        controller, _client = deploy([chat_spec(replicas=2)])
        for record in controller.workers("chat"):
            record.worker.kill()
        with pytest.raises(SmmfError, match="failed|no model"):
            controller.generate("chat", GenerationRequest("x"))

    def test_unknown_model_raises(self):
        controller, _client = deploy([chat_spec()])
        with pytest.raises(SmmfError, match="no model named"):
            controller.generate("ghost", GenerationRequest("x"))

    def test_crashed_worker_marked_unhealthy(self):
        """``failure_threshold`` consecutive crashes open the replica's
        breaker, and traffic routes around it."""
        controller, client = deploy([chat_spec(replicas=2)])
        broken, other = [r.worker for r in controller.workers("chat")]
        # Armed beyond the threshold, so its health probe fails too.
        broken.inject_failures(100)
        threshold = controller.resilience.breaker.failure_threshold
        for index in range(2 * threshold):
            client.generate("chat", f"x{index}")
        assert broken.failed == threshold
        assert controller.breakers.state(broken.worker_id) == OPEN
        assert other.served == 2 * threshold

    def test_clock_advances_with_latency(self):
        controller, client = deploy([chat_spec(latency_ms=100.0)])
        before = controller.clock
        client.generate("chat", "x")
        assert controller.clock == pytest.approx(before + 0.1)

    def test_health_sweep_evicts_silent_workers(self):
        controller, _client = deploy(
            [chat_spec(replicas=2)], heartbeat_timeout=5.0
        )
        workers = controller.workers("chat")
        controller.advance_clock(10.0)
        controller.heartbeat(workers[0].worker.worker_id)
        stale = controller.health_sweep()
        assert stale == [workers[1].worker.worker_id]


class TestApiServerAndClient:
    @pytest.fixture
    def client(self):
        _controller, client = deploy([chat_spec(replicas=1)])
        return client

    def test_generate_endpoint(self, client):
        assert client.generate("chat", "say hi", task="chat")
        body = client._server.handle(
            ApiRequest(
                "POST",
                "/v1/generate",
                {"model": "chat", "prompt": "hello", "task": "chat"},
            )
        ).body
        # Only a fallback-routed answer carries the marker.
        assert "degraded" not in body

    def test_models_endpoint(self, client):
        assert client.models() == ["chat"]

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["workers"] == 1
        assert health["healthy"] == 1

    def test_health_status_is_200_while_any_worker_is_up(self):
        controller, _client = deploy([chat_spec(replicas=2)])
        server = ApiServer(controller)

        def health():
            response = server.handle(ApiRequest("GET", "/v1/health"))
            return response.status, response.body["healthy"]

        try:
            assert health() == (200, 2)
            controller.workers("chat")[0].worker.kill()
            assert health() == (200, 1)
            controller.workers("chat")[1].worker.kill()
            assert health() == (503, 0)
        finally:
            controller.scheduler.close()
        bare = ModelController()
        try:
            response = ApiServer(bare).handle(ApiRequest("GET", "/v1/health"))
            assert (response.status, response.body["workers"]) == (503, 0)
        finally:
            bare.scheduler.close()

    def test_metrics_endpoint(self, client):
        client.generate("chat", "x")
        metrics = client.metrics()
        assert metrics["chat"]["requests"] == 1

    def test_metrics_endpoint_is_the_registry_summary(self):
        dbgpt = DBGPT.boot(
            DbGptConfig(
                models=[
                    ModelConfig("chat", "chat", replicas=2, latency_ms=1.23456)
                ]
            )
        )
        client = dbgpt.client
        dbgpt.controller.workers("chat")[0].worker.fail_next = 1
        client.generate("chat", "retried onto the second replica")
        client.generate("chat", "served first time")
        with pytest.raises(ClientError):
            client.generate("ghost", "no such model")

        summary = client.metrics()
        assert summary == dbgpt.model_metrics()
        latency = get_registry().histogram("model_latency_ms")
        tokens = get_registry().counter("model_tokens_total")
        assert summary["chat"] == {
            "requests": 2,
            "failures": 0,
            "retries": 1,
            "prompt_tokens": tokens.value(model="chat", kind="prompt"),
            "completion_tokens": tokens.value(
                model="chat", kind="completion"
            ),
            "mean_latency_ms": round(
                latency.sum(model="chat") / latency.count(model="chat"), 3
            ),
        }
        assert summary["chat"]["mean_latency_ms"] == 1.235
        # Each of the client's attempts at the unknown model failed.
        attempts = ResilienceConfig().retry.max_attempts
        assert summary["ghost"] == {
            "requests": 0,
            "failures": attempts,
            "retries": 0,
            "prompt_tokens": 0,
            "completion_tokens": 0,
            "mean_latency_ms": 0.0,
        }

    def test_missing_fields_400(self):
        _controller, client = deploy([chat_spec()])
        server = client._server
        response = server.handle(ApiRequest("POST", "/v1/generate", {}))
        assert response.status == 400

    def test_unknown_route_404(self, client):
        server = client._server
        assert server.handle(ApiRequest("GET", "/nope")).status == 404

    def test_unserved_model_503(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.generate("ghost", "x")
        assert excinfo.value.status == 503

    def test_model_error_422(self, client):
        from repro.llm import SqlCoderModel

        _controller2, client2 = deploy(
            [ModelSpec("sql-coder", lambda: SqlCoderModel("sql-coder"))]
        )
        with pytest.raises(ClientError) as excinfo:
            client2.generate("sql-coder", "not a structured prompt")
        assert excinfo.value.status == 422


class TestDeploy:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("x", lambda: ChatModel("x"), replicas=0)
        with pytest.raises(ValueError):
            ModelSpec("x", lambda: ChatModel("x"), latency_ms=-1)

    def test_factory_name_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must agree"):
            deploy([ModelSpec("a", lambda: ChatModel("b"))])

    def test_default_deploy_is_the_production_profile(self):
        controller, client = deploy([chat_spec()])
        for each in (controller, ModelController()):
            assert each.breakers is not None
            assert each.health is not None
            assert each._retry_policy is not None
        for each in (client, LLMClient(ApiServer(controller))):
            assert each._retry_policy is not None

    def test_replicas_isolated_instances(self):
        controller, _client = deploy([chat_spec(replicas=3)])
        models = {id(r.worker.model) for r in controller.workers("chat")}
        assert len(models) == 3
