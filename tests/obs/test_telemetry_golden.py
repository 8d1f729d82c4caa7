"""The metrics a fixed scenario publishes match a recorded golden.

Per-request sites record through module-level ``MetricHandle``s rather
than looking instruments up by name; this pins that the registry ends
up with the same instrument names, the same rendered label sets and
the same counts as when every site called ``get_registry().counter(...)``
itself. The golden (``telemetry_golden.json``) was recorded from that
earlier code with

    PYTHONPATH=src python -m tests.obs.test_telemetry_golden

which prints the scenario's summary as JSON; regenerate it only when a
change to the published telemetry is intended.

The scenario boots the production profile (serving, resilience and
tenancy on, caches on by default) and, for every application, runs one
uncached and one cached turn of tenant ``globex`` through the server
(``POST /v1/chat``) and again of tenant ``acme`` through the fabric
directly, plus one served turn that fails and one request no route
matches. Timings vary from run to run, so histograms are
compared by observation count only; worker ids come from a process-wide
counter and are renumbered in order of their number.
"""

import json
import re
from pathlib import Path

from repro.core import DBGPT, DbGptConfig
from repro.datasets import build_corpus, build_sales_database
from repro.datasources import EngineSource
from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer
from repro.rag.document import Document
from repro.resilience.config import ResilienceConfig
from repro.server.request import Request
from repro.serving.config import ServingConfig
from repro.tenancy import TenancyConfig

GOLDEN = Path(__file__).with_name("telemetry_golden.json")

TURNS = {
    "text2sql": "How many orders are there?",
    "chat2db": "How many users are there?",
    "chat2data": "What is the total amount per region?",
    "chat2viz": "What is the total amount per category?",
    "sql2text": "SELECT region, COUNT(*) FROM orders GROUP BY region",
    "knowledge_qa": "How does the index work?",
    "data_analysis": "Build a sales report by category using one dimension",
}
FAILING_TURN = ("chat2db", "show me the zorblax")

_WORKER = re.compile(r"worker-(\d+)")


def served_turn(app: str, text: str) -> Request:
    """One turn of tenant ``globex`` over ``POST /v1/chat``."""
    body = {"tenant_id": "globex", "app": app, "message": text}
    return Request("POST", "/v1/chat", body)


def run_scenario(traced: bool = True) -> dict:
    """Run the scenario against fresh global telemetry; returns the
    registry summary the golden records."""
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    previous_tracer = set_tracer(Tracer(enabled=traced))
    dbgpt = None
    try:
        dbgpt = DBGPT.boot(
            DbGptConfig(
                serving=ServingConfig(enabled=True),
                resilience=ResilienceConfig(enabled=True),
                tenancy=TenancyConfig(enabled=True),
            )
        )
        dbgpt.register_source(
            EngineSource(build_sales_database(seed=1, n_orders=60))
        )
        corpus = build_corpus(seed=1, docs_per_topic=3, queries_per_topic=1)
        dbgpt.add_documents(
            Document(doc_id, text)
            for doc_id, text in corpus.documents.items()
        )
        dbgpt.register_tenant("acme")
        dbgpt.register_tenant("globex")
        server = dbgpt.server()
        for app, text in TURNS.items():
            for _ in range(2):
                response = server.handle(served_turn(app, text))
                assert response.status == 200, response.body
            for _ in range(2):
                dbgpt.tenant_chat("acme", text, app_name=app)
        response = server.handle(served_turn(*FAILING_TURN))
        assert response.status == 422 and response.body["ok"] is False
        assert server.handle(Request("GET", "/api/nowhere")).status == 404
        return summarize(registry.snapshot())
    finally:
        if dbgpt is not None:
            dbgpt.shutdown()
        set_registry(previous_registry)
        set_tracer(previous_tracer)


def summarize(snapshot: dict) -> dict:
    """``{name: {kind, {label set: value or observation count}}}`` with
    worker ids renumbered."""
    workers = sorted(
        {int(n) for n in _WORKER.findall(json.dumps(snapshot))}
    )
    rank = {str(n): str(i) for i, n in enumerate(workers, start=1)}

    def label_set(rendered: str) -> str:
        return _WORKER.sub(lambda m: f"worker-{rank[m.group(1)]}", rendered)

    summary = {}
    for name, instrument in snapshot.items():
        values = {}
        for rendered, value in instrument["values"].items():
            if instrument["kind"] == "histogram":
                value = value["count"]
            values[label_set(rendered)] = value
        summary[name] = {"kind": instrument["kind"], "values": values}
    return summary


def test_snapshot_matches_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_scenario() == golden


def test_untraced_snapshot_matches_the_golden():
    """Latency histograms fed by spans are observed exactly once with
    the tracer off too, so the metrics do not depend on tracing."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_scenario(traced=False) == golden


if __name__ == "__main__":
    print(json.dumps(run_scenario(), indent=1, sort_keys=True))
