"""Write invalidation, end to end.

The acceptance scenario for the SQL tier: a cached text-to-data answer
must never outlive a write. Questions go through the full booted stack
(DBGPT → app → SMMF → sqlengine) with every cache tier enabled, writes
go through ``Database.execute``, and the same question asked again
must reflect the new data.
"""

import pytest

from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource


@pytest.fixture
def stack():
    db = build_sales_database(n_orders=60)
    dbgpt = DBGPT.boot()  # default config: every cache tier enabled
    dbgpt.register_source(EngineSource(db))
    return dbgpt, db


class TestWriteInvalidation:
    def test_insert_retires_cached_answer(self, stack):
        dbgpt, db = stack
        question = "How many orders are there?"
        first = dbgpt.chat("chat2db", question)
        again = dbgpt.chat("chat2db", question)
        assert "60" in first.text
        assert again.text == first.text  # warm turn, identical answer

        db.execute(
            "INSERT INTO orders VALUES (2001, 1, 1, 2, 50.0, '2023-07-01')"
        )
        after = dbgpt.chat("chat2db", question)
        assert "61" in after.text
        assert "60" not in after.text.split("\n")[-1]

    def test_update_retires_cached_answer(self, stack):
        dbgpt, db = stack
        before = db.execute("SELECT SUM(quantity) FROM orders").rows[0][0]
        cached = db.execute("SELECT SUM(quantity) FROM orders").rows[0][0]
        assert cached == before
        db.execute("UPDATE orders SET quantity = quantity + 1 WHERE order_id = 1")
        after = db.execute("SELECT SUM(quantity) FROM orders").rows[0][0]
        assert after == before + 1

    def test_delete_retires_cached_answer(self, stack):
        dbgpt, db = stack
        question = "How many orders are there?"
        assert "60" in dbgpt.chat("chat2db", question).text
        db.execute("DELETE FROM orders WHERE order_id = 1")
        assert "59" in dbgpt.chat("chat2db", question).text

    def test_drop_and_recreate_serves_fresh_schema(self, stack):
        _dbgpt, db = stack
        db.execute("CREATE TABLE scratch (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO scratch VALUES (1, 'old')")
        assert db.execute("SELECT v FROM scratch").rows == [("old",)]
        db.execute("DROP TABLE scratch")
        db.execute("CREATE TABLE scratch (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO scratch VALUES (1, 'new')")
        assert db.execute("SELECT v FROM scratch").rows == [("new",)]

    def test_rollback_also_invalidates(self, stack):
        _dbgpt, db = stack
        count = db.execute("SELECT COUNT(*) FROM orders").rows[0][0]
        db.execute("BEGIN")
        db.execute(
            "INSERT INTO orders VALUES (2002, 1, 1, 1, 10.0, '2023-07-02')"
        )
        # Inside the transaction the cached pre-write count must not
        # be served (the version moved with the INSERT).
        assert db.execute("SELECT COUNT(*) FROM orders").rows[0][0] == count + 1
        db.execute("ROLLBACK")
        # And after rollback the in-transaction result must not be
        # served either: ROLLBACK moves the schema epoch.
        assert db.execute("SELECT COUNT(*) FROM orders").rows[0][0] == count

    def test_text2sql_cached_between_writes(self, stack):
        dbgpt, db = stack
        question = "How many orders are there?"
        first = dbgpt.chat("text2sql", question)
        second = dbgpt.chat("text2sql", question)
        assert first.ok and first.text == second.text
        # text2sql only *generates* SQL; a write must not change it,
        # and executing the (still valid) SQL reflects the new data.
        db.execute(
            "INSERT INTO orders VALUES (2003, 1, 1, 1, 10.0, '2023-07-03')"
        )
        assert db.execute(first.payload).rows[0][0] == 61

    def test_an_ingest_keeps_the_prompt_and_the_inference_entry(
        self, stack, monkeypatch
    ):
        """Row counts are not part of the Text-to-SQL prompt: an ingest
        that adds no new column value leaves the prompt, and so the
        cached generation, alone."""
        from repro.llm.base import LanguageModel
        from repro.llm.prompts import build_text2sql_prompt

        dbgpt, db = stack
        source = EngineSource(db)
        question = "How many orders are there?"
        prompt = build_text2sql_prompt(source, question)
        first = dbgpt.chat("text2sql", question)
        assert first.ok

        generated = []
        generate = LanguageModel.generate

        def spy(self, request):
            generated.append(request.prompt)
            return generate(self, request)

        monkeypatch.setattr(LanguageModel, "generate", spy)
        db.execute(
            "INSERT INTO orders VALUES (2004, 1, 1, 1, 10.0, '2023-07-04')"
        )
        assert build_text2sql_prompt(source, question) == prompt
        again = dbgpt.chat("text2sql", question)
        assert again.ok and again.payload == first.payload
        assert generated == []  # served by the inference tier
        assert "[61 rows]" in dbgpt.chat("chat2db", "show tables").text


class TestPromptContext:
    """The schema + sample-values part of a Text-to-SQL prompt is served
    from the SQL tier under the schema epoch and the data versions of
    the tables it samples."""

    QUESTION = "How many orders are there?"

    def statements(self, db, monkeypatch):
        seen = []
        execute = type(db).execute_statement

        def spy(self, statement, *args, **kwargs):
            seen.append(statement)
            return execute(self, statement, *args, **kwargs)

        monkeypatch.setattr(type(db), "execute_statement", spy)
        return seen

    def test_repeat_prompts_issue_no_statements(
        self, enabled_cache, monkeypatch
    ):
        from repro.llm.prompts import build_text2sql_prompt

        source = EngineSource(build_sales_database(n_orders=20))
        seen = self.statements(source.database, monkeypatch)
        first = build_text2sql_prompt(source, self.QUESTION)
        assert seen  # the sample-value queries ran once
        del seen[:]
        assert build_text2sql_prompt(source, self.QUESTION) == first
        assert build_text2sql_prompt(source, "another one").startswith(
            first[: first.index("Write one SQL query")]
        )
        assert seen == []

    def test_a_write_retires_the_context(self, enabled_cache):
        source = EngineSource(build_sales_database(n_orders=20))
        before = source.prompt_context()
        source.database.execute(
            "INSERT INTO users VALUES (9001, 'zed', 'retail', 'atlantis', 30)"
        )
        after = source.prompt_context()
        assert "atlantis" not in "\n".join(before)
        assert "atlantis" in "\n".join(after)
        # A different value budget is a different entry.
        assert source.prompt_context(1) != after
