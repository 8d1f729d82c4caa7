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
        auth_token="demo-token",
        privacy=True,
    )
    dbgpt = DBGPT.boot(config)
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=300)))

    print("== Deployed workers ==")
    for record in dbgpt.controller.workers():
        print(f"  {record.worker.worker_id}: model={record.model_name}")

    print("\n== Load balancing across sql-coder replicas ==")
    for _ in range(6):
        dbgpt.chat("chat2data", "How many orders are there?")
    served = get_registry().counter("worker_requests_total")
    for record in dbgpt.controller.workers("sql-coder"):
        count = int(served.value(worker=record.worker.worker_id))
        print(f"  {record.worker.worker_id}: {count} requests")

    print("\n== Failure injection and failover ==")
    victim = dbgpt.controller.workers("sql-coder")[0]
    victim.worker.fail_next = 1
    response = dbgpt.chat("chat2data", "How many users are there?")
    print(f"  answer despite crash: {response.text}")
    print(
        "  retries recorded:",
        dbgpt.model_metrics()["sql-coder"]["retries"],
    )
    healthy = dbgpt.controller.registry.healthy_workers("sql-coder")
    print(f"  healthy sql-coder replicas now: {len(healthy)}")

    print("\n== Server layer with auth + privacy middleware ==")
    server = dbgpt.server()
    denied = server.handle(
        Request("POST", "/api/chat/chat2data", {"message": "hi"})
    )
    print(f"  without token: HTTP {denied.status}")
    allowed = server.handle(
        Request(
            "POST",
            "/api/chat/chat2data",
            {"message": "How many products are there? I am a@b.com"},
            headers={"Authorization": "Bearer demo-token"},
        )
    )
    print(f"  with token   : HTTP {allowed.status} -> {allowed.body['text']}")

    print("\n== Serving metrics ==")
    for model, metrics in dbgpt.model_metrics().items():
        print(f"  {model}: {metrics}")


if __name__ == "__main__":
    main()
