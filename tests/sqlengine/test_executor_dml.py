"""Execution tests for INSERT/UPDATE/DELETE/CREATE/DROP and constraints."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import (
    CatalogError,
    ExecutionError,
    TypeCheckError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
        "qty INTEGER DEFAULT 0, price REAL)"
    )
    return database


class TestInsert:
    def test_positional_insert(self, db):
        result = db.execute("INSERT INTO items VALUES (1, 'pen', 5, 1.5)")
        assert result.rowcount == 1
        assert db.table_rowcount("items") == 1

    def test_multi_row_insert(self, db):
        result = db.execute(
            "INSERT INTO items VALUES (1,'a',1,1.0),(2,'b',2,2.0),(3,'c',3,3.0)"
        )
        assert result.rowcount == 3

    def test_named_columns_fill_defaults(self, db):
        db.execute("INSERT INTO items (id, name) VALUES (1, 'pen')")
        row = db.execute("SELECT qty, price FROM items").rows[0]
        assert row == (0, None)

    def test_insert_select(self, db):
        db.execute("INSERT INTO items VALUES (1,'a',1,1.0),(2,'b',2,2.0)")
        db.execute("CREATE TABLE copy (id INTEGER, name TEXT)")
        result = db.execute("INSERT INTO copy SELECT id, name FROM items")
        assert result.rowcount == 2

    def test_wrong_arity_raises(self, db):
        with pytest.raises(ExecutionError, match="expects"):
            db.execute("INSERT INTO items VALUES (1, 'pen')")

    def test_expression_values(self, db):
        db.execute("INSERT INTO items VALUES (1+1, UPPER('pen'), 2*3, 1.0)")
        assert db.execute("SELECT id, name, qty FROM items").rows == [
            (2, "PEN", 6)
        ]


class TestConstraints:
    def test_primary_key_uniqueness(self, db):
        db.execute("INSERT INTO items VALUES (1, 'pen', 1, 1.0)")
        with pytest.raises(ExecutionError, match="duplicate"):
            db.execute("INSERT INTO items VALUES (1, 'cap', 1, 1.0)")

    def test_not_null_enforced(self, db):
        with pytest.raises(TypeCheckError, match="NULL"):
            db.execute("INSERT INTO items VALUES (1, NULL, 1, 1.0)")

    def test_primary_key_rejects_null(self, db):
        with pytest.raises(TypeCheckError):
            db.execute("INSERT INTO items VALUES (NULL, 'pen', 1, 1.0)")

    def test_type_coercion_int_from_float(self, db):
        db.execute("INSERT INTO items VALUES (1.0, 'pen', 2, 3)")
        row = db.execute("SELECT id, qty, price FROM items").rows[0]
        assert row == (1, 2, 3.0)
        assert isinstance(row[0], int)
        assert isinstance(row[2], float)

    def test_type_mismatch_raises(self, db):
        with pytest.raises(TypeCheckError):
            db.execute("INSERT INTO items VALUES ('abc', 'pen', 1, 1.0)")

    def test_unique_column(self, db):
        db.execute("CREATE TABLE u (a INTEGER UNIQUE)")
        db.execute("INSERT INTO u VALUES (1)")
        with pytest.raises(ExecutionError, match="duplicate"):
            db.execute("INSERT INTO u VALUES (1)")

    def test_unique_allows_multiple_nulls(self, db):
        db.execute("CREATE TABLE u (a INTEGER UNIQUE)")
        db.execute("INSERT INTO u VALUES (NULL), (NULL)")
        assert db.table_rowcount("u") == 2


class TestUpdateDelete:
    @pytest.fixture(autouse=True)
    def _rows(self, db):
        db.execute(
            "INSERT INTO items VALUES (1,'a',1,1.0),(2,'b',2,2.0),(3,'c',3,3.0)"
        )

    def test_update_with_where(self, db):
        result = db.execute("UPDATE items SET qty = qty + 10 WHERE id > 1")
        assert result.rowcount == 2
        assert db.execute("SELECT SUM(qty) FROM items").scalar() == 1 + 12 + 13

    def test_update_all_rows(self, db):
        assert db.execute("UPDATE items SET qty = 0").rowcount == 3

    def test_update_self_referencing_expression(self, db):
        db.execute("UPDATE items SET price = price * 2 WHERE id = 2")
        assert db.execute(
            "SELECT price FROM items WHERE id = 2"
        ).scalar() == 4.0

    def test_update_pk_conflict_rolls_back_nothing_weird(self, db):
        with pytest.raises(ExecutionError):
            db.execute("UPDATE items SET id = 1 WHERE id = 2")
        # Original rows intact.
        assert sorted(
            db.execute("SELECT id FROM items").column("id")
        ) == [1, 2, 3]

    def test_delete_with_where(self, db):
        assert db.execute("DELETE FROM items WHERE qty >= 2").rowcount == 2
        assert db.table_rowcount("items") == 1

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM items").rowcount == 3
        assert db.table_rowcount("items") == 0

    def test_delete_then_reinsert_pk(self, db):
        db.execute("DELETE FROM items WHERE id = 1")
        db.execute("INSERT INTO items VALUES (1, 'new', 9, 9.0)")
        assert db.table_rowcount("items") == 3


class TestDdl:
    def test_create_duplicate_raises(self, db):
        with pytest.raises(CatalogError, match="already exists"):
            db.execute("CREATE TABLE items (x INTEGER)")

    def test_create_if_not_exists_is_noop(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS items (x INTEGER)")
        # Original schema retained.
        assert "price" in db.catalog.table("items").column_names

    def test_drop_then_query_raises(self, db):
        db.execute("DROP TABLE items")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM items")

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE nope")

    def test_drop_if_exists_is_noop(self, db):
        db.execute("DROP TABLE IF EXISTS nope")

    def test_date_column_round_trip(self, db):
        import datetime

        db.execute("CREATE TABLE d (day DATE)")
        db.execute("INSERT INTO d VALUES ('2024-06-15')")
        value = db.execute("SELECT day FROM d").scalar()
        assert value == datetime.date(2024, 6, 15)

    def test_boolean_column(self, db):
        db.execute("CREATE TABLE b (flag BOOLEAN)")
        db.execute("INSERT INTO b VALUES (TRUE), (FALSE)")
        assert db.execute(
            "SELECT COUNT(*) FROM b WHERE flag"
        ).scalar() == 1


class TestDatabaseHelpers:
    def test_create_table_programmatic(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")], primary_key="a")
        db.insert_rows("t", [(1, "x"), (2, "y")])
        assert db.table_rowcount("t") == 2

    def test_insert_dicts_fills_defaults(self, db):
        db.insert_dicts("items", [{"id": 1, "name": "pen"}])
        assert db.execute("SELECT qty FROM items").scalar() == 0

    def test_load_table_infers_schema(self):
        db = Database()
        db.load_table(
            "people",
            [
                {"name": "ada", "age": 30, "score": 1.5},
                {"name": "bob", "age": 25, "score": 2.0},
            ],
        )
        schema = db.catalog.table("people")
        types = {c.name: c.data_type.value for c in schema.columns}
        assert types == {"name": "TEXT", "age": "INTEGER", "score": "REAL"}

    def test_load_table_empty_raises(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.load_table("empty", [])

    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO items VALUES (1,'a',1,1.0); "
            "INSERT INTO items VALUES (2,'b; with semicolon',2,2.0); "
            "SELECT COUNT(*) FROM items"
        )
        assert results[-1].scalar() == 2

    def test_result_set_helpers(self, db):
        db.execute("INSERT INTO items VALUES (1,'a',1,1.0)")
        result = db.execute("SELECT id, name FROM items")
        assert result.to_dicts() == [{"id": 1, "name": "a"}]
        assert result.column("name") == ["a"]
        assert len(result) == 1
        assert "id" in result.format_table()

    def test_describe_lists_tables(self, db):
        assert "items(" in db.describe()


class TestVectorsNeverLagTheHeap:
    """The column vectors behind the batch operators are a cache of the
    row heap. The same grouped statement — a covered columnar shape —
    must track every kind of write, against a naive row-pipeline
    database fed the same statements."""

    DASHBOARD = (
        "SELECT name, COUNT(*), SUM(qty), AVG(price), MIN(price) FROM items "
        "WHERE qty > 0 GROUP BY name"
    )

    def plan(self, db):
        return [row[0] for row in db.execute("EXPLAIN " + self.DASHBOARD).rows]

    def both(self, db, mirror, *statements):
        """Run on both databases, then compare the dashboard."""
        for sql in statements:
            assert db.execute(sql).rows == mirror.execute(sql).rows
        rows = db.execute(self.DASHBOARD).rows
        assert rows == mirror.execute(self.DASHBOARD).rows
        return rows

    @pytest.fixture
    def mirror(self):
        naive = Database(optimize=False)
        naive.execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
            "qty INTEGER DEFAULT 0, price REAL)"
        )
        return naive

    def test_every_write_path_is_seen(self, db, mirror):
        assert "SeqScan(items) [columnar]" in self.plan(db)
        assert self.both(db, mirror) == []
        seed = "INSERT INTO items VALUES (1,'pen',5,1.5),(2,'ink',2,9.0),(3,'pen',1,2.5)"
        assert self.both(db, mirror, seed) == [
            ("pen", 2, 6, 2.0, 1.5),
            ("ink", 1, 2, 9.0, 9.0),
        ]
        # INSERT extends the vectors built by the statement above.
        rows = self.both(db, mirror, "INSERT INTO items VALUES (4,'cap',7,NULL)")
        assert rows[-1] == ("cap", 1, 7, None, None)
        # UPDATE and DELETE replace the heap: the vectors are dropped.
        rows = self.both(db, mirror, "UPDATE items SET qty = 0 WHERE id = 1")
        assert rows[0] == ("ink", 1, 2, 9.0, 9.0)
        rows = self.both(db, mirror, "DELETE FROM items WHERE name = 'ink'")
        assert [row[0] for row in rows] == ["pen", "cap"]

    def test_rollback_restores_and_commit_keeps(self, db, mirror):
        self.both(db, mirror, "INSERT INTO items VALUES (1,'pen',5,1.5)")
        # The snapshot taken by BEGIN shares the vectors built so far;
        # extending them inside the transaction must not reach it.
        inside = self.both(
            db, mirror, "BEGIN", "INSERT INTO items VALUES (2,'pen',3,0.5)"
        )
        assert inside == [("pen", 2, 8, 1.0, 0.5)]
        assert self.both(db, mirror, "ROLLBACK") == [("pen", 1, 5, 1.5, 1.5)]
        self.both(db, mirror, "BEGIN", "INSERT INTO items VALUES (3,'ink',4,2.0)")
        assert self.both(db, mirror, "COMMIT") == [
            ("pen", 1, 5, 1.5, 1.5),
            ("ink", 1, 4, 2.0, 2.0),
        ]
        # A later insert extends what the committed transaction built.
        rows = self.both(db, mirror, "INSERT INTO items VALUES (4,'ink',1,4.0)")
        assert rows[1] == ("ink", 2, 5, 3.0, 2.0)

    def test_recreated_table_starts_from_nothing(self, db, mirror):
        self.both(db, mirror, "INSERT INTO items VALUES (1,'pen',5,1.5)")
        rows = self.both(
            db,
            mirror,
            "DROP TABLE items",
            "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
            "qty INTEGER DEFAULT 0, price REAL)",
            "INSERT INTO items VALUES (9,'cap',2,3.0)",
        )
        assert rows == [("cap", 1, 2, 3.0, 3.0)]

    def test_create_index_leaves_the_dashboard_columnar(self, db, mirror):
        self.both(
            db, mirror, "INSERT INTO items VALUES (1,'pen',5,1.5),(2,'ink',0,9.0)"
        )
        self.both(db, mirror, "CREATE INDEX idx_qty ON items (qty) USING SORTED")
        # A row projection takes the index; the covered aggregate keeps
        # masking the vector, and EXPLAIN says which.
        probe = db.execute("EXPLAIN SELECT name FROM items WHERE qty > 0").rows
        assert probe[0][0] == "IndexRangeScan(items.qty > 0 via idx_qty)"
        assert self.plan(db)[0] == "SeqScan(items) [columnar]"
        rows = self.both(db, mirror, "INSERT INTO items VALUES (3,'pen',2,0.5)")
        assert rows == [("pen", 2, 7, 1.0, 0.5)]
        assert db.execute("SELECT name FROM items WHERE qty > 0").rows == [
            ("pen",), ("pen",)
        ]
        self.both(db, mirror, "DROP INDEX idx_qty")
        assert self.plan(db)[0] == "SeqScan(items) [columnar]"
