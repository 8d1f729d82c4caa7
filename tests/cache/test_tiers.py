"""The three wired tiers: SMMF inference, RAG retrieval, SQL results."""

import os
import subprocess
import sys

import pytest

from repro.apps.text2sql import Text2SqlApp, schema_knowledge_base
from repro.cache.config import CacheConfig, TierConfig
from repro.cache.manager import get_cache_manager
from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.llm import ChatModel
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.rag.document import Document
from repro.rag.knowledge_base import KnowledgeBase
from repro.smmf import ModelSpec, deploy
from repro.sqlengine.database import Database


def chat_spec(name="chat", replicas=1):
    return ModelSpec(name, lambda: ChatModel(name), replicas=replicas)


def total_served(controller, model="chat"):
    return sum(r.worker.served for r in controller.workers(model))


@pytest.fixture
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


class TestInferenceTier:
    def test_repeat_prompt_skips_the_worker(self, enabled_cache):
        controller, client = deploy([chat_spec()])
        first = client.generate("chat", "hello there")
        second = client.generate("chat", "hello there")
        assert first == second
        assert total_served(controller) == 1
        stats = enabled_cache.store("inference").stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_whitespace_normalization_shares_entries(self, enabled_cache):
        """No normalization: the prompt is keyed exactly, so whitespace
        variants are separate entries."""
        controller, client = deploy([chat_spec()])
        client.generate("chat", "hello   there")
        client.generate("chat", "  hello there  ")
        assert total_served(controller) == 2
        assert len(enabled_cache.store("inference")) == 2

    def test_parameters_partition_the_cache(self, enabled_cache):
        controller, client = deploy([chat_spec()])
        client.generate("chat", "hello", max_tokens=64)
        client.generate("chat", "hello", max_tokens=128)
        client.generate("chat", "hello", task="chat")
        assert total_served(controller) == 3

    def test_two_clients_never_share_entries(self, enabled_cache):
        controller_a, client_a = deploy([chat_spec()])
        controller_b, client_b = deploy([chat_spec()])
        client_a.generate("chat", "hello")
        client_b.generate("chat", "hello")
        assert total_served(controller_a) == 1
        assert total_served(controller_b) == 1

    def test_bare_deploy_client_serves_repeat_from_inference_tier(self):
        controller, client = deploy([chat_spec()])
        client.generate("chat", "hello")
        client.generate("chat", "hello")
        assert total_served(controller) == 1
        stats = get_cache_manager().store("inference").stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_errors_are_never_cached(self, enabled_cache):
        controller, client = deploy([chat_spec()])
        from repro.smmf.client import ClientError

        with pytest.raises(ClientError):
            client.generate("missing-model", "hello")
        with pytest.raises(ClientError):
            client.generate("missing-model", "hello")
        assert len(enabled_cache.store("inference")) == 0


class TestRagTier:
    def build_kb(self):
        kb = KnowledgeBase(name="docs")
        kb.add_document(
            Document("d1", "PostgreSQL uses MVCC for transaction isolation.")
        )
        kb.add_document(
            Document("d2", "Indexes in MySQL speed up query filtering.")
        )
        return kb

    def test_repeat_retrieval_is_cached(self, enabled_cache):
        kb = self.build_kb()
        first = kb.retrieve("How does PostgreSQL isolation work?", k=1)
        second = kb.retrieve("How does PostgreSQL isolation work?", k=1)
        assert [r.chunk.chunk_id for r in first] == [
            r.chunk.chunk_id for r in second
        ]
        assert first[0].chunk.doc_id == "d1"
        stats = enabled_cache.store("rag").stats()
        assert stats.hits >= 1

    def test_indexing_invalidates_cached_results(self, enabled_cache):
        kb = self.build_kb()
        kb.retrieve("vacuum tuning advice", k=1)
        kb.add_document(
            Document("d3", "Vacuum tuning advice for PostgreSQL autovacuum.")
        )
        hits = kb.retrieve("vacuum tuning advice", k=1)
        assert hits[0].chunk.doc_id == "d3"

    def test_strategies_cache_separately(self, enabled_cache):
        kb = self.build_kb()
        kb.retrieve("postgresql", k=1, strategy="vector")
        kb.retrieve("postgresql", k=1, strategy="keyword")
        stats = enabled_cache.store("rag").stats()
        assert stats.hits == 0  # distinct keys, no false sharing


class TestSqlTier:
    def build_db(self):
        db = Database("shop")
        db.execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT, price REAL)"
        )
        db.insert_rows(
            "items", [(1, "widget", 9.5), (2, "gadget", 19.0)]
        )
        return db

    def test_repeat_select_is_cached(self, enabled_cache):
        db = self.build_db()
        first = db.execute("SELECT name FROM items ORDER BY id")
        second = db.execute("SELECT name FROM items ORDER BY id")
        assert first.rows == second.rows
        stats = enabled_cache.store("sql").stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_cached_result_is_not_aliased(self, enabled_cache):
        db = self.build_db()
        first = db.execute("SELECT name FROM items ORDER BY id")
        first.rows.clear()
        second = db.execute("SELECT name FROM items ORDER BY id")
        assert second.rows == [("widget",), ("gadget",)]

    def test_write_invalidates(self, enabled_cache):
        db = self.build_db()
        before = db.execute("SELECT COUNT(*) FROM items")
        db.execute("INSERT INTO items VALUES (3, 'doohickey', 4.0)")
        after = db.execute("SELECT COUNT(*) FROM items")
        assert before.rows[0][0] == 2
        assert after.rows[0][0] == 3

    def test_programmatic_writes_invalidate(self, enabled_cache):
        db = self.build_db()
        db.execute("SELECT COUNT(*) FROM items")
        db.insert_rows("items", [(3, "doohickey", 4.0)])
        assert db.execute("SELECT COUNT(*) FROM items").rows[0][0] == 3

    def test_parameters_partition_the_cache(self, enabled_cache):
        db = self.build_db()
        one = db.execute("SELECT name FROM items WHERE id = ?", (1,))
        two = db.execute("SELECT name FROM items WHERE id = ?", (2,))
        assert one.rows != two.rows

    def test_bare_database_serves_repeat_select_from_sql_tier(self):
        # A fresh interpreter: the manager a bare Database consults is
        # the one built at import, not one a test installed.
        script = (
            "from repro.cache.manager import get_cache_manager\n"
            "from repro.sqlengine.database import Database\n"
            "db = Database('shop')\n"
            "db.execute('CREATE TABLE t (id INTEGER)')\n"
            "db.execute('INSERT INTO t VALUES (1)')\n"
            "for _ in range(2):\n"
            "    db.execute('SELECT id FROM t')\n"
            "stats = get_cache_manager().store('sql').stats()\n"
            "print(stats.hits, stats.misses)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.split() == ["1", "1"]

    def test_two_databases_never_share_entries(self, enabled_cache):
        db_a = self.build_db()
        db_b = self.build_db()
        db_b.execute("INSERT INTO items VALUES (3, 'extra', 1.0)")
        count_a = db_a.execute("SELECT COUNT(*) FROM items").rows[0][0]
        count_b = db_b.execute("SELECT COUNT(*) FROM items").rows[0][0]
        assert (count_a, count_b) == (2, 3)


class TestSchemaKbMemoization:
    def test_apps_over_same_source_share_one_index(self, enabled_cache):
        _controller, client = deploy(
            [ModelSpec("sql-coder", lambda: ChatModel("sql-coder"))]
        )
        db = Database("shop")
        db.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
        source = EngineSource(db)
        app_a = Text2SqlApp(client, source, validate=False)
        app_b = Text2SqlApp(client, source, validate=False)
        assert app_a._schema_kb is app_b._schema_kb

    def test_schema_change_rebuilds_the_index(self, enabled_cache):
        db = Database("shop")
        db.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)")
        source = EngineSource(db)
        kb_before = schema_knowledge_base(source)
        db.execute("CREATE TABLE extra (id INTEGER PRIMARY KEY)")
        kb_after = schema_knowledge_base(source)
        assert kb_before is not kb_after
        assert len(kb_after) > len(kb_before)


class TestNoOffSwitch:
    def test_configs_reject_an_enabled_flag(self):
        with pytest.raises(TypeError):
            CacheConfig(enabled=False)
        with pytest.raises(TypeError):
            TierConfig(enabled=False)
        with pytest.raises(TypeError):
            CacheConfig(semantic_lookup=True)


class TestWiredStack:
    QUESTIONS = [
        ("text2sql", "How many orders are there?"),
        ("chat2db", "What is the total amount per region?"),
        ("chat2db", "How many orders are there?"),
        ("text2sql", "How many orders are there?"),  # warm repeat
    ]

    @staticmethod
    def boot():
        dbgpt = DBGPT.boot()
        dbgpt.register_source(
            EngineSource(build_sales_database(n_orders=40))
        )
        return dbgpt

    def test_answers_identical_with_and_without_cache(self):
        dbgpt = self.boot()

        def answers():
            return [
                dbgpt.chat(app, question).text
                for app, question in self.QUESTIONS
            ]

        cold = answers()
        warm = answers()
        assert dbgpt.clear_caches() > 0
        recomputed = answers()
        assert cold == warm == recomputed

    def test_lookups_mark_the_caller_span_and_count(self, fresh_registry):
        """No lookup opens a span: the root (chat2db looks up from its
        own turn) carries every outcome per tier, in order, and they
        are exactly the observations the hit and miss histograms
        gain."""
        dbgpt = self.boot()

        def lookups():
            counts = {}
            for outcome, name in (
                ("hit", "cache_hit_latency_ms"),
                ("miss", "cache_miss_compute_ms"),
            ):
                histogram = fresh_registry.histogram(name)
                for labels, series in histogram.snapshot()["values"].items():
                    counts[f"outcome={outcome},{labels}"] = series["count"]
            return counts

        for turn in ("cold", "warm"):
            before = lookups()
            dbgpt.chat("chat2db", "How many orders are there?")
            after = lookups()
            spans = dbgpt.last_trace()
            assert "cache.lookup" not in {span.name for span in spans}
            (root,) = [span for span in spans if span.parent_id is None]
            counted = {}
            for tier in ("inference", "rag", "sql"):
                outcomes = root.attributes.get(f"cache.{tier}", "")
                for outcome in filter(None, outcomes.split(",")):
                    label = f"outcome={outcome},tier={tier}"
                    counted[label] = counted.get(label, 0) + 1
            deltas = {
                label: value - before.get(label, 0)
                for label, value in after.items()
                if value != before.get(label, 0)
            }
            assert counted == deltas and deltas
            if turn == "warm":
                assert set(deltas) == {
                    "outcome=hit,tier=inference", "outcome=hit,tier=sql",
                }
