"""Executor edge cases discovered during integration work."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, "
        "amount REAL, day DATE)"
    )
    database.insert_rows(
        "sales",
        [
            (1, "north", 100.0, "2024-01-05"),
            (2, "south", 50.0, "2024-01-20"),
            (3, "north", 75.0, "2024-02-10"),
            (4, "east", None, "2024-02-15"),
            (5, "south", 25.0, "2024-03-01"),
        ],
    )
    return database


class TestGroupingEdgeCases:
    def test_group_by_expression(self, db):
        rows = db.execute(
            "SELECT STRFTIME('%Y-%m', day), COUNT(*) FROM sales "
            "GROUP BY STRFTIME('%Y-%m', day) ORDER BY 1"
        ).rows
        assert rows == [("2024-01", 2), ("2024-02", 2), ("2024-03", 1)]

    def test_having_aggregate_not_in_select(self, db):
        rows = db.execute(
            "SELECT region FROM sales GROUP BY region "
            "HAVING SUM(amount) > 60 ORDER BY region"
        ).rows
        assert rows == [("north",), ("south",)]

    def test_group_by_with_null_values_forms_group(self, db):
        rows = db.execute(
            "SELECT amount IS NULL, COUNT(*) FROM sales "
            "GROUP BY amount IS NULL ORDER BY 1"
        ).rows
        assert rows == [(False, 4), (True, 1)]

    def test_aggregate_over_join(self, db):
        db.execute("CREATE TABLE regions (region TEXT, zone TEXT)")
        db.execute(
            "INSERT INTO regions VALUES ('north','cold'),"
            "('south','warm'),('east','warm')"
        )
        rows = db.execute(
            "SELECT r.zone, SUM(s.amount) FROM sales s "
            "JOIN regions r ON s.region = r.region "
            "GROUP BY r.zone ORDER BY r.zone"
        ).rows
        assert rows == [("cold", 175.0), ("warm", 75.0)]

    def test_case_inside_aggregate(self, db):
        value = db.execute(
            "SELECT SUM(CASE WHEN region = 'north' THEN amount ELSE 0 END) "
            "FROM sales"
        ).scalar()
        assert value == 175.0

    def test_aggregate_of_expression(self, db):
        value = db.execute(
            "SELECT AVG(amount * 2) FROM sales WHERE amount IS NOT NULL"
        ).scalar()
        assert value == pytest.approx(125.0)


class TestDmlEdgeCases:
    def test_update_with_subquery_in_where(self, db):
        db.execute(
            "UPDATE sales SET amount = 0 WHERE id IN "
            "(SELECT id FROM sales WHERE region = 'north')"
        )
        assert db.execute(
            "SELECT SUM(amount) FROM sales WHERE region = 'north'"
        ).scalar() == 0

    def test_delete_with_scalar_subquery(self, db):
        db.execute(
            "DELETE FROM sales WHERE amount = "
            "(SELECT MAX(amount) FROM sales)"
        )
        assert db.table_rowcount("sales") == 4

    def test_insert_select_with_expressions(self, db):
        db.execute("CREATE TABLE archive (id INTEGER, doubled REAL)")
        db.execute(
            "INSERT INTO archive SELECT id, amount * 2 FROM sales "
            "WHERE amount IS NOT NULL"
        )
        assert db.execute("SELECT SUM(doubled) FROM archive").scalar() == 500.0

    def test_update_with_parameters(self, db):
        db.execute(
            "UPDATE sales SET region = ? WHERE id = ?",
            parameters=("west", 1),
        )
        assert db.execute(
            "SELECT region FROM sales WHERE id = 1"
        ).scalar() == "west"

    def test_parameters_in_select(self, db):
        rows = db.execute(
            "SELECT id FROM sales WHERE amount BETWEEN ? AND ? ORDER BY id",
            parameters=(50, 100),
        ).rows
        assert rows == [(1,), (2,), (3,)]


class TestOrderingEdgeCases:
    def test_order_by_desc_nulls_last(self, db):
        values = db.execute(
            "SELECT amount FROM sales ORDER BY amount DESC"
        ).column("amount")
        assert values[-1] is None
        assert values[:2] == [100.0, 75.0]

    def test_order_by_two_keys_mixed_direction(self, db):
        rows = db.execute(
            "SELECT region, amount FROM sales "
            "WHERE amount IS NOT NULL ORDER BY region ASC, amount DESC"
        ).rows
        assert rows == [
            ("north", 100.0), ("north", 75.0),
            ("south", 50.0), ("south", 25.0),
        ]

    def test_limit_zero(self, db):
        assert db.execute("SELECT * FROM sales LIMIT 0").rows == []

    def test_offset_beyond_end(self, db):
        assert db.execute(
            "SELECT * FROM sales LIMIT 10 OFFSET 99"
        ).rows == []


class TestMiscEdgeCases:
    def test_select_star_from_subquery_alias(self, db):
        rows = db.execute(
            "SELECT sub.* FROM (SELECT region FROM sales "
            "WHERE amount > 60) AS sub ORDER BY sub.region"
        ).rows
        assert rows == [("north",), ("north",)]

    def test_scalar_comparison_with_date_string(self, db):
        count = db.execute(
            "SELECT COUNT(*) FROM sales WHERE day >= '2024-02-01'"
        ).scalar()
        assert count == 3

    def test_concat_operator_in_projection(self, db):
        value = db.execute(
            "SELECT region || '-' || id FROM sales WHERE id = 1"
        ).scalar()
        assert value == "north-1"

    def test_division_by_zero_in_where_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM sales WHERE amount / 0 > 1")

    def test_union_of_view_and_table(self, db):
        db.execute(
            "CREATE VIEW big AS SELECT region FROM sales WHERE amount > 60"
        )
        rows = db.execute(
            "SELECT region FROM big UNION SELECT region FROM sales "
            "ORDER BY 1"
        ).rows
        assert rows == [("east",), ("north",), ("south",)]


class TestLimitOffsetAndTypeErrors:
    """Python slice semantics and bare ``TypeError``s must not leak out
    of the tail every SELECT shares (all three failed before)."""

    def test_negative_limit_is_no_limit(self, db):
        rows = db.execute("SELECT id FROM sales ORDER BY id LIMIT -1").rows
        assert rows == [(1,), (2,), (3,), (4,), (5,)]
        rows = db.execute("SELECT id FROM sales ORDER BY id LIMIT -1 OFFSET 3").rows
        assert rows == [(4,), (5,)]

    def test_negative_offset_is_zero(self, db):
        rows = db.execute("SELECT id FROM sales ORDER BY id LIMIT 1 OFFSET -1").rows
        assert rows == [(1,)]
        rows = db.execute(
            "SELECT id FROM sales WHERE id < 3 UNION ALL "
            "SELECT id FROM sales WHERE id > 4 ORDER BY 1 LIMIT 2 OFFSET -1"
        ).rows
        assert rows == [(1,), (2,)]

    @pytest.mark.parametrize("limit", ["'x'", "1.5", "NULL", "1 OFFSET NULL"])
    def test_compound_limit_must_be_an_integer(self, db, limit):
        with pytest.raises(ExecutionError, match="LIMIT/OFFSET must be integers"):
            db.execute(f"SELECT id FROM sales UNION SELECT id FROM sales LIMIT {limit}")

    @pytest.mark.parametrize("name", ["MIN", "MAX"])
    def test_min_max_over_mixed_types_raise_engine_errors(self, db, name):
        with pytest.raises(ExecutionError, match="cannot compare"):
            db.execute(
                f"SELECT {name}(CASE WHEN id = 1 THEN 'z' ELSE 5 END) FROM sales"
            )
