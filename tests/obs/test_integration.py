"""End-to-end observability: one chat turn crosses all four layers.

The acceptance claim for the observability layer — a single text2sql
request yields one trace containing application, SMMF, AWEL and RAG
spans, each with a real duration — plus the AWEL runner's guarantee
that a raising operator still closes its span as an error.
"""

import pytest

from repro.awel.dag import DAG
from repro.awel.operators import InputOperator, MapOperator
from repro.awel.runner import WorkflowRunner
from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.obs import span_tree


@pytest.fixture
def dbgpt():
    stack = DBGPT.boot()
    stack.register_source(EngineSource(build_sales_database(n_orders=30)))
    return stack


class TestText2SqlTrace:
    def test_one_request_spans_all_four_layers(self, tracer, registry, dbgpt):
        response = dbgpt.chat("text2sql", "What is the total amount per region?")
        assert response.ok

        spans = tracer.last_trace()
        names = {span.name for span in spans}
        assert "app.chat" in names           # application layer
        assert "smmf.generate" in names      # module layer: serving
        assert "smmf.worker" in names
        assert "awel.dag" in names           # protocol layer
        assert "awel.operator" in names
        assert "rag.retrieve" in names       # module layer: retrieval

        for span in spans:
            assert span.ended, f"{span.name} never closed"
            assert span.duration_ms > 0.0, f"{span.name} has no duration"
            assert span.status == "ok"

    def test_trace_is_one_connected_tree_rooted_at_app_chat(
        self, tracer, registry, dbgpt
    ):
        dbgpt.chat("text2sql", "How many orders are there?")
        spans = tracer.last_trace()
        root, children = span_tree(spans)
        assert root.name == "app.chat"
        assert root.attributes["app"] == "text2sql"
        assert len({span.trace_id for span in spans}) == 1

        # Every non-root span hangs off a span in the same trace.
        ids = {span.span_id for span in spans}
        for span in spans:
            if span is not root:
                assert span.parent_id in ids

        # The pipeline stages appear as operator spans under the DAG.
        dag_span = next(s for s in spans if s.name == "awel.dag")
        operators = {
            s.attributes["operator"]
            for s in children.get(dag_span.span_id, [])
        }
        assert {"schema_link", "build_prompt", "generate", "validate"} <= (
            operators
        )

    def test_metrics_cover_every_layer(self, tracer, registry, dbgpt):
        dbgpt.chat("text2sql", "What is the total amount per region?")
        names = set(registry.names())
        assert {
            "app_latency_ms",
            "model_requests_total",
            "worker_requests_total",
            "balancer_chosen_inflight",
            "awel_dag_runs_total",
            "awel_operator_latency_ms",
            "rag_retrieval_latency_ms",
        } <= names
        assert registry.get("app_latency_ms").count(
            app="text2sql", ok="true"
        ) == 1
        assert registry.get("awel_dag_runs_total").value(
            dag="text2sql", status="ok"
        ) == 1
        # One routing pick per model call: the pick histogram's count.
        assert registry.get("balancer_chosen_inflight").count(
            policy="round_robin", model="sql-coder"
        ) == registry.get("model_requests_total").value(
            model="sql-coder", outcome="success"
        )


class TestNestedWorkflow:
    def test_chat_app_usable_as_operator_inside_another_dag(
        self, tracer, registry, dbgpt
    ):
        """An operator of one DAG may synchronously invoke an app whose
        chat runs its own pipeline (``examples/awel_workflows.py`` does
        exactly this); the nested spans stay in the outer trace."""

        def ask(question):
            return dbgpt.chat("text2sql", question).text

        with DAG("outer") as dag:
            source = InputOperator(name="question")
            source >> MapOperator(ask, name="to_sql")

        ctx = WorkflowRunner(dag).run("How many orders are there?")
        answer = ctx.results[dag.nodes["to_sql"].node_id]
        assert "SELECT" in answer

        spans = tracer.last_trace()
        assert len({s.trace_id for s in spans}) == 1
        names = {s.name for s in spans}
        assert {"awel.dag", "app.chat", "smmf.generate"} <= names
        # Both the outer DAG and the app's inner pipeline are present.
        dags = {s.attributes["dag"] for s in spans if s.name == "awel.dag"}
        assert dags == {"outer", "text2sql"}
        # The app's root span hangs off the outer DAG's operator.
        chat = next(s for s in spans if s.name == "app.chat")
        assert chat.parent_id is not None


class TestAwelRunnerErrorClosure:
    def test_raising_operator_closes_span_with_error(self, tracer, registry):
        def explode(value):
            raise ZeroDivisionError("by design")

        with DAG("fragile") as dag:
            source = InputOperator(name="start")
            source >> MapOperator(explode, name="explode")

        with pytest.raises(ZeroDivisionError):
            WorkflowRunner(dag).run("payload")

        spans = tracer.last_trace()
        failed = next(
            s
            for s in spans
            if s.name == "awel.operator"
            and s.attributes["operator"] == "explode"
        )
        assert failed.ended
        assert failed.status == "error"
        assert failed.error_type == "ZeroDivisionError"
        # The enclosing DAG span also closes as an error.
        dag_span = next(s for s in spans if s.name == "awel.dag")
        assert dag_span.ended
        assert dag_span.status == "error"
        assert registry.get("awel_dag_runs_total").value(
            dag="fragile", status="error"
        ) == 1
