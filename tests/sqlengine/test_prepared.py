"""A prepared statement's plans never outlive its schema.

``Database`` keeps one memo entry per SELECT text: the parse, the
canonical SQL and the plans of its cores, built under one schema epoch
and one ``optimize``/``enable_hash_join`` setting (docs/sqlengine.md §
Prepared statements). Each case runs the same text before and after a
change and holds the answer to the naive reference,
``Database(optimize=False)``.
"""

import pytest

from repro.cache.manager import get_cache_manager
from repro.sqlengine import Database, SqlEngineError
from repro.sqlengine import executor as executor_module
from repro.sqlengine.binder import bind
from repro.sqlengine.executor import Executor

SCHEMA = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)",
    "CREATE TABLE u (a INTEGER, x TEXT)",
)
ROWS = {
    "t": [(i, i % 3, "bcd"[i % 3]) for i in range(9)],
    "u": [(0, "zero"), (1, "one"), (1, "uno")],
}


def pair():
    """The database under test and the naive reference, equally loaded."""
    dbs = []
    for optimize in (True, False):
        db = Database(optimize=optimize)
        for sql in SCHEMA:
            db.execute(sql)
        for table, rows in ROWS.items():
            db.insert_rows(table, rows)
        dbs.append(db)
    return dbs


def answer(db, sql):
    """Rows, or the error type, of one statement."""
    try:
        return db.execute(sql).rows
    except SqlEngineError as error:
        return type(error)


def on_both(dbs, *statements):
    for db in dbs:
        for sql in statements:
            db.execute(sql)


@pytest.fixture
def builds(monkeypatch):
    """Counts the plans the executor builds."""
    built = []
    build_plan = executor_module.build_plan

    def counting(select, *args, **kwargs):
        built.append(select)
        return build_plan(select, *args, **kwargs)

    monkeypatch.setattr(executor_module, "build_plan", counting)
    return built


def check(dbs, sql):
    ours, naive = dbs
    got = answer(ours, sql)
    assert got == answer(naive, sql), sql
    return got


class TestOnePlanPerSchema:
    def test_same_text_twice_builds_one_plan(self, builds):
        ours, _naive = pair()
        sql = "SELECT b, COUNT(*) FROM t WHERE a > 0 GROUP BY b"
        first = ours.execute(sql).rows
        assert len(builds) == 1
        ours.execute("INSERT INTO t VALUES (9, 2, 'd')")  # data, not schema
        assert ours.execute(sql).rows != first
        assert len(builds) == 1

    def test_tier_on_path_reads_the_same_entry(self, builds):
        ours, _naive = pair()
        sql = "SELECT id FROM t WHERE b = 'c'"
        ours.execute(sql)
        ours.execute("INSERT INTO t VALUES (9, 1, 'c')")
        assert ours.execute(sql).rows == [(1,), (4,), (7,), (9,)]
        assert len(builds) == 1  # a result miss, not a plan miss

    def test_correlated_subquery_plans_once(self, builds):
        ours, naive = pair()
        sql = "SELECT id, (SELECT COUNT(*) FROM u WHERE u.a = t.a) FROM t"
        expected = naive.execute(sql).rows
        del builds[:]
        assert ours.execute(sql).rows == expected
        # The outer core and the subquery, not the subquery per row.
        assert len(builds) == 2
        ours.execute("INSERT INTO u VALUES (2, 'two')")
        assert ours.execute(sql).rows != expected
        assert len(builds) == 2


class TestSchemaChangesRetirePlans:
    def test_create_and_drop_index(self, builds):
        ours, _naive = dbs = pair()
        sql = "SELECT id FROM t WHERE a = 1"
        before = check(dbs, sql)
        on_both(dbs, "CREATE INDEX idx_a ON t (a)")
        del builds[:]
        assert ours.execute(sql).rows == before
        assert len(builds) == 1  # replanned: it now takes the index
        on_both(dbs, "DROP INDEX idx_a")
        # The index plan would now look up a dropped index.
        assert check(dbs, sql) == before

    def test_drop_and_recreate_with_other_columns(self):
        dbs = pair()
        sql = "SELECT a, COUNT(*) FROM t GROUP BY a"
        projection = "SELECT b FROM t WHERE a = 'x'"
        on_both(dbs, "CREATE INDEX idx_a ON t (a)")
        check(dbs, sql)
        assert check(dbs, projection) == []
        on_both(
            dbs,
            "DROP TABLE t",
            "CREATE TABLE t (b INTEGER, a TEXT, c REAL)",
            "INSERT INTO t VALUES (1, 'x', 0.5)",
            "INSERT INTO t VALUES (2, 'x', 1.5)",
            "INSERT INTO t VALUES (3, 'y', NULL)",
        )
        assert check(dbs, sql) == [("x", 2), ("y", 1)]
        # The old plan's index went with the old table.
        assert check(dbs, projection) == [(1,), (2,)]
        on_both(
            dbs,
            "DROP TABLE t",
            "CREATE TABLE t (id INTEGER)",
            "INSERT INTO t VALUES (1)",
        )
        error = check(dbs, projection)
        assert isinstance(error, type) and issubclass(error, SqlEngineError)

    def test_view_redefined(self):
        dbs = pair()
        sql = "SELECT id FROM v WHERE id < 6"
        on_both(dbs, "CREATE VIEW v AS SELECT id FROM t WHERE a = 1")
        assert check(dbs, sql) == [(1,), (4,)]
        on_both(
            dbs, "DROP VIEW v", "CREATE VIEW v AS SELECT id FROM t WHERE a = 2"
        )
        assert check(dbs, sql) == [(2,), (5,)]

    def test_index_created_inside_a_rolled_back_transaction(self):
        dbs = pair()
        sql = "SELECT id FROM t WHERE a = 2"
        on_both(dbs, "BEGIN", "CREATE INDEX idx_a ON t (a)")
        before = check(dbs, sql)  # planned over the index
        on_both(dbs, "ROLLBACK")
        assert dbs[0].index_names() == []
        assert check(dbs, sql) == before

    def test_flipping_optimize_replans(self, builds):
        ours, naive = pair()
        sql = "SELECT b, SUM(a) FROM t GROUP BY b"
        expected = naive.execute(sql).rows
        del builds[:]

        def planned():
            # The settings do not key the result, so drop the cached
            # one: each run then reaches the planner.
            get_cache_manager().clear("sql")
            return ours.execute(sql).rows

        assert planned() == expected
        ours.optimize = False
        assert planned() == expected
        assert "[columnar]" not in str(ours.execute("EXPLAIN " + sql).rows)
        ours.enable_hash_join = False
        assert planned() == expected
        ours.optimize = ours.enable_hash_join = True
        assert planned() == expected
        # One per setting the text ran under, plus the EXPLAIN's own.
        assert len(builds) == 5


class TestWithScope:
    SQL = "WITH c AS (SELECT * FROM t) SELECT a, COUNT(*) FROM c WHERE a > 0 GROUP BY a"

    def test_executed_after_an_explain_of_the_same_query(self, builds):
        ours, naive = pair()
        expected = naive.execute(self.SQL).rows
        select = ours.parse(self.SQL)
        binding = bind(select, ours)
        plans = {}

        def run(method):
            executor = Executor(ours.catalog, ours._tables, binding, plans=plans)
            return getattr(executor, method)(select).rows

        explained = run("explain")
        assert explained[0] == ("Cte c:",)
        built = len(builds)
        # EXPLAIN and the run read one binding, which knows the CTE's
        # columns (``SELECT *`` expanded): no core is planned again.
        assert run("execute") == expected
        assert run("execute") == expected
        assert len(builds) == built

    def test_through_the_database(self):
        dbs = pair()
        dbs[0].execute("EXPLAIN " + self.SQL)
        assert check(dbs, self.SQL) == [(1, 3), (2, 3)]
