"""Index DDL must retire cached SELECT results (the ``schema_epoch``).

``data_version`` already retires reads on every write, but index DDL is
subtler: ``CREATE INDEX`` / ``DROP INDEX`` change *how* a query is
planned without changing any row. A result cached under the old plan is
still value-correct — but serving it would mask plan changes and, after
a ROLLBACK restores pre-transaction index state, could disagree with
what the current plan produces. The database therefore keys every SQL
cache entry on a ``schema_epoch`` that bumps alongside ``data_version``
on index (and table and view) DDL, programmatic index creation, and
ROLLBACK; the same epoch retires prepared plans
(``tests/sqlengine/test_prepared.py``).
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
        result = db.execute(sql)  # same data version? no — but even if
        # the write bump were removed, the epoch alone forces a miss.
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
