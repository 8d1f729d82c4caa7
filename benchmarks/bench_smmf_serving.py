"""Experiment P2 — SMMF multi-model serving (paper §2.3).

Measures the deployment layer's behaviour: request throughput through
the API server, load spread per balancing policy, and failover when
workers crash mid-traffic. Shapes: round-robin spreads evenly,
least-busy never exceeds round-robin's imbalance, and a worker crash
loses zero requests.
"""

import pytest

from repro.llm import ChatModel, GenerationRequest, SqlCoderModel
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.smmf import (
    LeastBusyBalancer,
    ModelSpec,
    RandomBalancer,
    RoundRobinBalancer,
    deploy,
    model_metrics,
)

REQUESTS = 60
REPLICAS = 4


@pytest.fixture(autouse=True)
def _fresh_registry():
    """The serving metrics are process-wide registry series: each bench
    reads them from zero."""
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def make_stack(balancer):
    return deploy(
        [
            ModelSpec("chat", lambda: ChatModel("chat"), replicas=REPLICAS),
        ],
        balancer=balancer,
    )


def spread(controller):
    served = get_registry().counter("worker_requests_total")
    counts = [
        int(served.value(worker=record.worker.worker_id))
        for record in controller.workers("chat")
    ]
    return max(counts) - min(counts)


def test_balancer_spread_shapes():
    rows = []
    for balancer, name in (
        (RoundRobinBalancer(), "round_robin"),
        (RandomBalancer(seed=7), "random"),
        (LeastBusyBalancer(), "least_busy"),
    ):
        controller, client = make_stack(balancer)
        for index in range(REQUESTS):
            client.generate("chat", f"request {index}", task="chat")
        rows.append((name, spread(controller)))

    print("\n=== P2: load spread by balancing policy "
          f"({REQUESTS} requests, {REPLICAS} replicas) ===")
    print(f"{'policy':12s} {'max-min spread':>14s}")
    for name, value in rows:
        print(f"{name:12s} {value:14d}")

    by_name = dict(rows)
    assert by_name["round_robin"] == 0
    assert by_name["least_busy"] <= by_name["random"] + 1
    assert by_name["random"] >= 0


def test_failover_loses_no_requests():
    controller, client = make_stack(RoundRobinBalancer())
    workers = controller.workers("chat")
    served = 0
    for index in range(REQUESTS):
        if index == 10:
            workers[0].worker.kill()
        if index == 25:
            workers[1].worker.fail_next = 2
        client.generate("chat", f"request {index}", task="chat")
        served += 1
    assert served == REQUESTS
    metrics = model_metrics()["chat"]
    print(
        f"\n=== P2: failover — {metrics['requests']} served, "
        f"{metrics['retries']} retries, {metrics['failures']} failures ==="
    )
    assert metrics["requests"] == REQUESTS
    assert metrics["failures"] == 0
    # The killed worker and the crashing worker each cost (at least)
    # one retried request before being marked unhealthy.
    assert metrics["retries"] >= 1


def test_multi_model_isolation():
    controller, client = deploy(
        [
            ModelSpec("chat", lambda: ChatModel("chat"), replicas=2),
            ModelSpec(
                "sql-coder", lambda: SqlCoderModel("sql-coder"), replicas=2
            ),
        ]
    )
    for record in controller.workers("chat"):
        record.worker.kill()
    # sql-coder traffic is unaffected by the chat outage.
    from repro.smmf.client import ClientError

    with pytest.raises(ClientError) as excinfo:
        client.generate("chat", "hello", task="chat")
    assert excinfo.value.status == 503
    health = client.health()
    assert health["healthy"] == 2
    assert set(client.models()) == {"chat", "sql-coder"}


def test_serving_throughput(benchmark):
    _controller, client = make_stack(RoundRobinBalancer())

    def serve_batch():
        for index in range(50):
            client.generate("chat", f"request {index}", task="chat")

    benchmark(serve_batch)


def test_worker_direct_inference_throughput(benchmark):
    from repro.smmf import ModelWorker

    worker = ModelWorker(ChatModel("chat"))
    request = GenerationRequest("hello world", task="chat")
    benchmark(lambda: worker.handle(request))
