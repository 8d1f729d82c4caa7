"""Experiment F1 — Figure 1's four-layer system design round trip.

Exercises one request through every layer: application layer entry
(direct call), then the same interaction through the optional server
layer (middleware + routing), then the module layer (SMMF serving) and
protocol layer (an AWEL workflow wrapping the same call). Asserts all
four paths agree and measures the per-layer overhead.
"""

import pytest

from repro.awel import DAG, InputOperator, MapOperator, run_dag
from repro.server import Request
from repro.tenancy import QuotaConfig

QUESTION = "How many orders are there?"
EXPECTED = "The answer is 300."


def test_application_layer_direct(cold_benchmark, sales_dbgpt):
    app = sales_dbgpt.app("chat2data")
    result = cold_benchmark(lambda: app.chat(QUESTION))
    assert result.text == EXPECTED


def test_server_layer_round_trip(cold_benchmark, sales_dbgpt):
    # Every served turn is a tenant turn; this tenant's quota never
    # throttles the timed rounds.
    sales_dbgpt.register_tenant(
        "figure1", quota=QuotaConfig(refill_per_second=1e6, burst=1e6)
    )
    server = sales_dbgpt.server()
    request = Request(
        "POST",
        "/v1/chat",
        {"tenant_id": "figure1", "app": "chat2data", "message": QUESTION},
    )

    def call():
        return server.handle(
            Request(request.method, request.path, dict(request.body))
        )

    response = cold_benchmark(call)
    assert response.status == 200
    assert response.body["text"] == EXPECTED


def test_module_layer_smmf_call(cold_benchmark, sales_dbgpt):
    from repro.llm import build_text2sql_prompt

    source = sales_dbgpt.sources.get("sales")
    prompt = build_text2sql_prompt(source, QUESTION)

    sql = cold_benchmark(
        lambda: sales_dbgpt.client.generate(
            "sql-coder", prompt, task="text2sql"
        )
    )
    assert sql == "SELECT COUNT(*) FROM orders"


def test_protocol_layer_awel_wrapping(cold_benchmark, sales_dbgpt):
    app = sales_dbgpt.app("chat2data")

    def build_and_run():
        with DAG("layer-probe") as dag:
            question = InputOperator(name="question")
            answer = MapOperator(lambda q: app.chat(q).text, name="answer")
            question >> answer
        return run_dag(dag, QUESTION)

    result = cold_benchmark(build_and_run)
    assert result == EXPECTED
