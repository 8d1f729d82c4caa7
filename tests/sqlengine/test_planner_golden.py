"""Golden-plan snapshots for the EXPLAIN surface.

These pin the *entire* rendered plan, line for line, for one query per
planner feature: index point lookup, sorted range scan, projection
pruning, predicate pushdown through a hash join, CTE scans, the
columnar marking of a covered and of a declined shape, the dictionary
``SELECT DISTINCT`` of a prompt probe, and the naive
(``optimize=False``) reference pipeline. docs/sqlengine.md quotes
the same plans; if a rendering change breaks these tests, update the
docs in the same commit.
"""

import pytest

from repro.sqlengine import Database


def plan(db: Database, sql: str) -> list[str]:
    return [row[0] for row in db.execute("EXPLAIN " + sql).rows]


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE orders (order_id INTEGER PRIMARY KEY, "
        "user_id INTEGER, amount REAL)"
    )
    database.execute(
        "CREATE TABLE users (user_id INTEGER PRIMARY KEY, region TEXT)"
    )
    database.execute("CREATE INDEX idx_user ON orders (user_id)")
    database.execute("CREATE INDEX idx_amount ON orders (amount) USING SORTED")
    return database


class TestGoldenPlans:
    def test_index_point_lookup_with_pruning(self, db):
        assert plan(db, "SELECT order_id FROM orders WHERE user_id = 7") == [
            "IndexScan(orders.user_id = 7 via idx_user)",
            "  Filter: (user_id = 7)",
            "  Columns: order_id, user_id",
        ]

    def test_sorted_range_scan_with_residual(self, db):
        assert plan(
            db,
            "SELECT order_id FROM orders "
            "WHERE amount BETWEEN 10 AND 20 AND user_id > 1",
        ) == [
            "IndexRangeScan(orders.amount >= 10 AND orders.amount <= 20"
            " via idx_amount)",
            "  Filter: ((amount BETWEEN 10 AND 20) AND (user_id > 1))",
        ]

    def test_hash_join_pushdown_and_pipeline(self, db):
        assert plan(
            db,
            "SELECT users.region, SUM(orders.amount) FROM orders "
            "JOIN users ON orders.user_id = users.user_id "
            "WHERE users.region = 'west' "
            "GROUP BY users.region ORDER BY users.region LIMIT 5",
        ) == [
            "HashJoin(INNER) [columnar]",
            "  SeqScan(orders) [columnar]",
            "  SeqScan(users) [columnar]",
            "    Filter: (users.region = 'west')",
            "Aggregate by users.region [columnar]",
            "Sort: users.region ASC",
            "Limit: 5",
        ]

    def test_columnar_scalar_function_key(self, db):
        # A key that is a function of one column, a numeric BETWEEN
        # mask: still batch operators end to end.
        assert plan(
            db,
            "SELECT ABS(user_id), COUNT(*), AVG(amount) FROM orders "
            "WHERE order_id BETWEEN 1 AND 9 GROUP BY ABS(user_id) "
            "HAVING COUNT(*) > 1",
        ) == [
            "SeqScan(orders) [columnar]",
            "  Filter: (order_id BETWEEN 1 AND 9)",
            "Aggregate by ABS(user_id) [columnar]",
            "Having: (COUNT(*) > 1)",
        ]

    def test_columnar_shape_keeps_its_sequential_scan(self, db):
        # idx_user covers the predicate, and a row projection takes it;
        # the covered aggregate masks the column vector instead (an
        # index path yields rows, which would decline the whole plan).
        assert plan(db, "SELECT amount FROM orders WHERE user_id = 7")[0] == (
            "IndexScan(orders.user_id = 7 via idx_user)"
        )
        assert plan(db, "SELECT COUNT(*) FROM orders WHERE user_id = 7") == [
            "SeqScan(orders) [columnar]",
            "  Filter: (user_id = 7)",
            "Aggregate [columnar]",
        ]

    def test_dictionary_distinct(self, db):
        # The prompt probe reads the column's dictionary, which holds
        # its distinct values in first-seen order: no per-row pass.
        assert plan(
            db, "SELECT DISTINCT region FROM users "
            "WHERE region IS NOT NULL LIMIT 20"
        ) == [
            "SeqScan(users) [columnar]",
            "  Filter: (region IS NOT NULL)",
            "Distinct [columnar]",
            "Limit: 20",
        ]

    @pytest.mark.parametrize(
        "statement, lines",
        [
            (  # an outer join
                "SELECT users.region, COUNT(*) FROM orders LEFT JOIN users "
                "ON orders.user_id = users.user_id GROUP BY users.region",
                ["HashJoin(LEFT)", "  SeqScan(orders)", "  SeqScan(users)",
                 "Aggregate by users.region"],
            ),
            (  # a residual ON predicate beside the equi conjunct
                "SELECT COUNT(*) FROM orders JOIN users ON "
                "orders.user_id = users.user_id AND orders.amount > 5",
                ["HashJoin(INNER)", "  SeqScan(orders)", "  SeqScan(users)",
                 "Aggregate"],
            ),
            (  # an aggregate argument that is not a column
                "SELECT SUM(amount * 2) FROM orders",
                ["SeqScan(orders)", "  Columns: amount", "Aggregate"],
            ),
            (  # a DISTINCT aggregate
                "SELECT COUNT(DISTINCT user_id) FROM orders",
                ["SeqScan(orders)", "  Columns: user_id", "Aggregate"],
            ),
            (  # a predicate over two columns
                "SELECT COUNT(*) FROM orders WHERE amount > user_id",
                ["SeqScan(orders)", "  Filter: (amount > user_id)", "Aggregate"],
            ),
        ],
    )
    def test_declined_shapes_stay_row_based(self, db, statement, lines):
        assert plan(db, statement) == lines

    def test_cte_plan(self, db):
        assert plan(
            db,
            "WITH big AS (SELECT user_id, SUM(amount) AS total "
            "FROM orders GROUP BY user_id) "
            "SELECT user_id FROM big WHERE total > 100",
        ) == [
            "Cte big:",
            "  SeqScan(orders) [columnar]",
            "  Aggregate by user_id [columnar]",
            "CteScan(big)",
            "  Filter: (total > 100)",
        ]

    def test_naive_reference_plan(self):
        naive = Database(optimize=False, enable_hash_join=False)
        naive.execute(
            "CREATE TABLE orders (order_id INTEGER PRIMARY KEY, "
            "user_id INTEGER, amount REAL)"
        )
        naive.execute(
            "CREATE TABLE users (user_id INTEGER PRIMARY KEY, region TEXT)"
        )
        naive.execute("CREATE INDEX idx_user ON orders (user_id)")
        # optimize=False ignores indexes, keeps the filter unpushed and
        # joins with a nested loop: the reference semantics.
        assert plan(
            naive,
            "SELECT order_id FROM orders "
            "JOIN users ON orders.user_id = users.user_id "
            "WHERE users.region = 'west'",
        ) == [
            "NestedLoopJoin(INNER)",
            "  SeqScan(orders)",
            "  SeqScan(users)",
            "Filter: (users.region = 'west')",
        ]

    def test_plans_describe_real_execution(self, db):
        # The snapshot plans above must correspond to runnable queries.
        db.execute("INSERT INTO orders VALUES (1, 7, 15.0)")
        db.execute("INSERT INTO users VALUES (7, 'west')")
        assert db.execute(
            "SELECT order_id FROM orders WHERE user_id = 7"
        ).rows == [(1,)]
        assert db.execute(
            "SELECT users.region, SUM(orders.amount) FROM orders "
            "JOIN users ON orders.user_id = users.user_id "
            "WHERE users.region = 'west' "
            "GROUP BY users.region ORDER BY users.region LIMIT 5"
        ).rows == [("west", 15.0)]
