"""Tests for the application layer."""

import pytest

from repro.apps import (
    Chat2DataApp,
    Chat2DbApp,
    Chat2ExcelApp,
    Chat2VizApp,
    GenerativeAnalysisApp,
    KnowledgeQAApp,
    Sql2TextApp,
    Text2SqlApp,
)
from repro.datasets import build_sales_database
from repro.datasources import EngineSource, Sheet, Workbook
from repro.llm import ChatModel, PlannerModel, SqlCoderModel
from repro.rag import Document, KnowledgeBase
from repro.smmf import ModelSpec, deploy
from repro.viz import ChartSpec, ChartType


@pytest.fixture(scope="module")
def client():
    _controller, client = deploy(
        [
            ModelSpec("sql-coder", lambda: SqlCoderModel("sql-coder")),
            ModelSpec("chat", lambda: ChatModel("chat")),
            ModelSpec("planner", lambda: PlannerModel("planner")),
        ]
    )
    return client


@pytest.fixture(scope="module")
def source():
    return EngineSource(build_sales_database(n_orders=100))


class TestText2SqlApp:
    def test_translates(self, client, source):
        app = Text2SqlApp(client, source)
        response = app.chat("How many orders are there?")
        assert response.ok
        assert response.payload == "SELECT COUNT(*) FROM orders"

    def test_untranslatable_handled(self, client, source):
        app = Text2SqlApp(client, source)
        response = app.chat("please fix my bicycle")
        assert not response.ok
        assert "error" in response.metadata

    def test_chinese_question(self, client, source):
        app = Text2SqlApp(client, source)
        response = app.chat("订单一共有多少个？")
        assert response.ok
        assert "COUNT(*)" in response.payload


class TestSql2TextApp:
    def test_explains(self, client):
        app = Sql2TextApp(client)
        response = app.chat("SELECT COUNT(*) FROM orders")
        assert "number of rows" in response.text

    def test_invalid_sql_handled(self, client):
        app = Sql2TextApp(client)
        response = app.chat("SELEKT broken")
        assert not response.ok


class TestChat2DbApp:
    @pytest.fixture
    def app(self, client, source):
        return Chat2DbApp(client, source)

    def test_show_tables(self, app):
        response = app.chat("show tables")
        assert "orders(" in response.text
        assert "users(" in response.text

    def test_describe_table(self, app):
        response = app.chat("describe products")
        assert "products.category" in response.text

    def test_describe_unknown_table(self, app):
        response = app.chat("describe nothingness")
        assert not response.ok
        assert "Known tables" in response.text

    def test_query_returns_sql_and_rows(self, app):
        response = app.chat("How many products are there?")
        assert response.ok
        assert response.metadata["sql"] == "SELECT COUNT(*) FROM products"
        assert response.payload.scalar() == 25

    def test_history_recorded_and_reset(self, app):
        app.chat("show tables")
        app.chat("How many users are there?")
        assert len(app.history) == 2
        app.reset()
        assert app.history == []

    def test_read_only_guard_classification(self):
        from repro.apps.chat2db import _is_read_only

        assert _is_read_only("SELECT * FROM orders")
        assert _is_read_only("EXPLAIN SELECT * FROM orders")
        assert not _is_read_only("DELETE FROM orders")
        assert not _is_read_only("UPDATE orders SET amount = 0")
        assert not _is_read_only("DROP TABLE orders")
        assert not _is_read_only("not sql at all")

    def test_generated_sql_is_parsed_once(self, client, monkeypatch):
        # The gate, the read-only check and execution share the
        # database's prepared statement.
        from repro.sqlengine import database

        parsed = []
        parse_sql = database.parse_sql

        def counting(sql):
            parsed.append(sql)
            return parse_sql(sql)

        monkeypatch.setattr(database, "parse_sql", counting)
        app = Chat2DbApp(client, EngineSource(build_sales_database(n_orders=10)))
        response = app.chat("How many products are there?")
        assert response.ok
        assert parsed.count(response.metadata["sql"]) == 1

    def test_read_only_by_default(self, client, source):
        assert Chat2DbApp(client, source).read_only

    def test_unanswerable_is_conversational(self, app):
        response = app.chat("make me a sandwich")
        assert not response.ok
        assert "could not turn that into SQL" in response.text


class TestChat2DataApp:
    @pytest.fixture
    def app(self, client, source):
        return Chat2DataApp(client, source)

    def test_single_value_narrated(self, app):
        response = app.chat("How many orders are there?")
        assert response.text == "The answer is 100."

    def test_breakdown_narrated(self, app):
        response = app.chat("What is the total amount per region?")
        assert response.text.startswith("Here is the breakdown")
        assert response.metadata["sql"].startswith("SELECT users.region")

    def test_list_narrated(self, app):
        response = app.chat("List all the distinct category of the products.")
        assert "results:" in response.text or "breakdown" in response.text


class TestChat2ExcelApp:
    @pytest.fixture
    def app(self, client):
        workbook = Workbook(
            [
                Sheet.from_records(
                    "Quarterly Sales",
                    [
                        {"region": "north", "revenue": 120.0},
                        {"region": "south", "revenue": 80.0},
                    ],
                )
            ]
        )
        return Chat2ExcelApp(client, workbook)

    def test_show_sheets(self, app):
        response = app.chat("show sheets")
        assert "Quarterly Sales" in response.text

    def test_question_over_sheet(self, app):
        response = app.chat(
            "What is the total revenue of the quarterly sales?"
        )
        assert "200" in response.text

    def test_from_xlsx(self, client, tmp_path):
        workbook = Workbook(
            [Sheet.from_records("s", [{"a": 1}, {"a": 2}])]
        )
        path = tmp_path / "book.xlsx"
        workbook.save_xlsx(path)
        app = Chat2ExcelApp.from_xlsx(client, path)
        response = app.chat("What is the total a of the s?")
        assert "3" in response.text


class TestChat2VizApp:
    @pytest.fixture
    def app(self, client, source):
        return Chat2VizApp(client, source)

    def test_grouped_question_becomes_chart(self, app):
        response = app.chat("total amount per region")
        assert response.ok
        assert isinstance(response.payload, ChartSpec)

    def test_trend_words_pick_area(self, app):
        response = app.chat("total amount per month")
        assert response.payload.chart_type is ChartType.AREA

    def test_share_words_pick_donut(self, app):
        response = app.chat("share of total amount per category")
        assert response.payload.chart_type is ChartType.DONUT

    def test_explicit_type_wins(self, app):
        response = app.chat("total amount per month as a bar chart")
        assert response.payload.chart_type is ChartType.BAR

    def test_scalar_result_not_chartable(self, app):
        response = app.chat("How many orders are there?")
        assert not response.ok
        assert "chartable" in response.text


class TestKnowledgeQAApp:
    @pytest.fixture
    def app(self, client):
        kb = KnowledgeBase()
        kb.add_document(
            Document(
                "pg-doc",
                "The vacuum process reclaims dead tuples in PostgreSQL.",
            )
        )
        kb.add_document(
            Document("net-doc", "The tcp handshake opens connections.")
        )
        return KnowledgeQAApp(client, kb)

    def test_answer_with_citation(self, app):
        response = app.chat("What does the vacuum process do?")
        assert response.ok
        assert "reclaims dead tuples" in response.text
        assert "pg-doc" in response.metadata["citations"]

    def test_empty_kb_admits_ignorance(self, client):
        app = KnowledgeQAApp(client, KnowledgeBase())
        response = app.chat("anything?")
        assert not response.ok


class TestGenerativeAnalysisApp:
    def test_full_flow_and_alter(self, client, source):
        app = GenerativeAnalysisApp(client, source)
        response = app.chat(
            "Build sales reports and analyze user orders from at least "
            "three distinct dimensions"
        )
        assert response.ok
        assert response.metadata["charts"] == 3
        first_title = app.last_report.dashboard.charts[0].title
        altered = app.alter_chart(first_title, "table")
        assert altered.ok
        assert altered.payload.chart_type is ChartType.TABLE

    def test_alter_before_run_rejected(self, client, source):
        app = GenerativeAnalysisApp(client, source)
        response = app.alter_chart("x", "bar")
        assert not response.ok
