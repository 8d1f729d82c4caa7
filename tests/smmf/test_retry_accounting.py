"""``model_retries_total`` counts every crashed replica attempt.

A request can crash on a replica in several failover sweeps (timed
retry rounds) before one succeeds, and a fused batch fails over at
``start_batch``. Each crash is one retry of that model, on both the
per-request and the batch path.
"""

from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm.base import GenerationRequest
from repro.llm.chat_model import ChatModel
from repro.smmf import ModelSpec, deploy, model_metrics


def test_crashes_in_every_sweep_count_on_the_request_path():
    dbgpt = DBGPT.boot()
    try:
        dbgpt.register_source(
            EngineSource(build_sales_database(seed=1, n_orders=60))
        )
        replicas = dbgpt.controller.workers("sql-coder")
        assert len(replicas) == 2
        for record in replicas:
            record.worker.fail_next = 1
        response = dbgpt.chat(
            "chat2data", "What is the total amount per region?"
        )
        assert response.ok
        assert [r.worker.failed for r in replicas] == [1, 1]
        assert model_metrics()["sql-coder"]["retries"] == 2
    finally:
        dbgpt.shutdown()


def test_crashes_at_batch_start_count_on_the_batch_path():
    controller, _client = deploy(
        [ModelSpec("chat", lambda: ChatModel("chat"), replicas=2)]
    )
    try:
        for record in controller.workers("chat"):
            record.worker.fail_next = 1
        lease = controller.start_batch(
            "chat",
            [GenerationRequest(f"hello {i}", task="chat") for i in range(2)],
        )
        members = lease.pending()
        while lease.pending():
            lease.step()
        lease.complete_many(members)
        metrics = model_metrics()["chat"]
        assert (metrics["requests"], metrics["retries"]) == (2, 2)
    finally:
        controller.scheduler.close()
