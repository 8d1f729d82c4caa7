"""SMMF: private multi-model serving with failover and the server layer.

Deploys three private models across replicated workers, demonstrates
load balancing, worker failure + automatic failover, health sweeps, and
finally mounts the whole application layer behind the HTTP-shaped
server with auth + privacy middleware.

Run with::

    python examples/private_serving_smmf.py
"""

from repro.core import DBGPT, DbGptConfig, ModelConfig
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.obs import get_registry
from repro.server import Request


def main() -> None:
    config = DbGptConfig(
        models=[
            ModelConfig("sql-coder", "sql-coder", replicas=3, latency_ms=12),
            ModelConfig("chat", "chat", replicas=2, latency_ms=8),
            ModelConfig("planner", "planner", replicas=1),
        ],
        # The bearer token authenticates its caller as tenant "demo".
        auth_principals={"demo-token": "demo"},
        privacy=True,
    )
    dbgpt = DBGPT.boot(config)
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=300)))
    dbgpt.register_tenant("demo")

    print("== Deployed workers ==")
    for record in dbgpt.controller.workers():
        print(f"  {record.worker.worker_id}: model={record.model_name}")

    print("\n== Load balancing across sql-coder replicas ==")
    questions = [
        "How many orders are there?",
        "How many users are there?",
        "How many products are there?",
        "What is the total amount of orders?",
        "What is the average price of products?",
        "How many orders are there per region?",
    ]
    for question in questions:  # all distinct: no cache hits
        dbgpt.chat("chat2data", question)
    served = get_registry().counter("worker_requests_total")
    for record in dbgpt.controller.workers("sql-coder"):
        count = int(served.value(worker=record.worker.worker_id))
        print(f"  {record.worker.worker_id}: {count} requests")

    print("\n== Failure injection and failover ==")
    # Six requests went round the three replicas twice, so round-robin
    # sends the next one, a question not asked yet, to the first.
    victim = dbgpt.controller.workers("sql-coder")[0]
    victim.worker.fail_next = 1
    response = dbgpt.chat("chat2data", "What is the maximum amount of orders?")
    retries = dbgpt.model_metrics()["sql-coder"]["retries"]
    print(f"  {victim.worker.worker_id} crashed; answer: {response.text}")
    print("  retries recorded:", retries)
    assert retries >= 1 and response.text, "the injected crash was not failed over"
    healthy = dbgpt.controller.registry.healthy_workers("sql-coder")
    print(f"  healthy sql-coder replicas now: {len(healthy)}")

    print("\n== Server layer with auth + privacy middleware ==")
    server = dbgpt.server()
    denied = server.handle(
        Request("POST", "/v1/chat", {"app": "chat2data", "message": "hi"})
    )
    print(f"  without token: HTTP {denied.status}")
    allowed = server.handle(
        Request(
            "POST",
            "/v1/chat",
            {
                "app": "chat2data",
                "message": "How many products are there? I am a@b.com",
            },
            headers={"Authorization": "Bearer demo-token"},
        )
    )
    print(f"  with token   : HTTP {allowed.status} -> {allowed.body['text']}")

    print("\n== Serving metrics ==")
    for model, metrics in dbgpt.model_metrics().items():
        print(f"  {model}: {metrics}")
    dbgpt.shutdown()


if __name__ == "__main__":
    main()
