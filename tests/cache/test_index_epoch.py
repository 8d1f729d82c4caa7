"""Index DDL and ROLLBACK must retire cached reads (the ``schema_epoch``).

A write retires the cached reads of the table it writes (its data
version, ``test_table_versions.py``). Index DDL is subtler:
``CREATE INDEX`` / ``DROP INDEX`` change *how* a query is planned
without changing any row. A result cached under the old plan is still
value-correct — but serving it would mask plan changes and, after a
ROLLBACK restores pre-transaction index state, could disagree with what
the current plan produces. ROLLBACK also restores old rows without
moving any table's data version. The database therefore keys every SQL
cache entry (and the prompt context and gate verdict) on a
``schema_epoch`` that table, view and index DDL, programmatic index
creation and ROLLBACK bump; the same epoch retires prepared plans and
their grouped state (``tests/sqlengine/test_prepared.py``).
"""

import pytest

from repro.cache.keys import sql_key
from repro.sqlengine import Database


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"
    )
    database.insert_rows("t", [(i, i * 10) for i in range(20)])
    return database


class TestSqlKeyEpoch:
    def test_epoch_is_part_of_the_key(self):
        base = ("tok", "db", 3, "SELECT 1", ())
        assert sql_key(*base, schema_epoch=0) != sql_key(*base, schema_epoch=1)

    def test_epoch_defaults_to_zero(self):
        base = ("tok", "db", 3, "SELECT 1", ())
        assert sql_key(*base) == sql_key(*base, schema_epoch=0)


class TestEpochBumps:
    def test_create_and_drop_index_bump(self, db):
        before = db.schema_epoch
        db.execute("CREATE INDEX idx_v ON t (v)")
        after_create = db.schema_epoch
        db.execute("DROP INDEX idx_v")
        assert before < after_create < db.schema_epoch

    def test_programmatic_create_index_bumps(self, db):
        before = db.schema_epoch
        db.create_index("idx_v", "t", ["v"])
        assert db.schema_epoch > before

    def test_rollback_bumps(self, db):
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute("BEGIN")
        db.execute("DROP INDEX idx_v")
        before = db.schema_epoch
        db.execute("ROLLBACK")  # restores the dropped index
        assert db.schema_epoch > before

    def test_plain_select_does_not_bump(self, db):
        before = db.schema_epoch
        db.execute("SELECT COUNT(*) FROM t")
        assert db.schema_epoch == before


class TestCachedSelectsRetire:
    def test_create_index_is_a_cache_miss(self, enabled_cache, db):
        sql = "SELECT v FROM t WHERE v = 50"
        db.execute(sql)
        db.execute(sql)
        stats = enabled_cache.stats()["sql"]
        assert stats["hits"] == 1 and stats["misses"] == 1

        db.execute("CREATE INDEX idx_v ON t (v)")
        result = db.execute(sql)  # no data version moved: the epoch did
        assert result.rows == [(50,)]
        stats = enabled_cache.stats()["sql"]
        assert stats["misses"] == 2

    def test_warm_hits_resume_after_reindex(self, enabled_cache, db):
        sql = "SELECT COUNT(*) FROM t"
        db.execute(sql)
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute(sql)
        hits_before = enabled_cache.stats()["sql"]["hits"]
        assert db.execute(sql).rows == [(20,)]
        assert enabled_cache.stats()["sql"]["hits"] == hits_before + 1


class TestEverythingRetires:
    """Reads of every table, and the prompt context, miss after index
    DDL and after ROLLBACK, even a ROLLBACK of a transaction that wrote
    one table only."""

    @pytest.mark.parametrize(
        "change",
        [
            ["CREATE INDEX idx_region ON users (region)"],
            [
                "BEGIN",
                "INSERT INTO orders VALUES (9001, 1, 1, 1, 5.0, '2023-07-01')",
                "ROLLBACK",
            ],
        ],
    )
    def test_all_reads_miss(self, enabled_cache, change):
        from repro.datasets import build_sales_database
        from repro.datasources import EngineSource

        source = EngineSource(build_sales_database(n_orders=20))
        reads = [
            "SELECT COUNT(*) FROM users",
            "SELECT COUNT(*) FROM products",
            "SELECT COUNT(*) FROM orders",
        ]
        before = [source.database.execute(sql).rows for sql in reads]
        context = source.prompt_context()
        misses = enabled_cache.stats()["sql"]["misses"]
        for statement in change:
            source.database.execute(statement)
        assert [source.database.execute(sql).rows for sql in reads] == before
        assert source.prompt_context() == context
        # Every read missed again, the context's value probes included.
        assert enabled_cache.stats()["sql"]["misses"] == 2 * misses
