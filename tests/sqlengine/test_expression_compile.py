"""Compile-once expression closures: laziness, scoping, binding."""

import pytest

from repro.sqlengine import Database, ExecutionError
from repro.sqlengine.expressions import Evaluator, RowContext
from repro.sqlengine.parser import parse_expression


@pytest.fixture()
def db():
    database = Database(name="compile")
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
    database.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER, pat TEXT)")
    return database


def fill(database):
    database.insert_rows(
        "t", [(1, 1, "apple"), (2, 1, "avocado"), (3, 2, "banana"), (4, 3, None)]
    )
    database.insert_rows("u", [(1, 1, "a%"), (2, 2, "%an%"), (3, 3, "x_")])


class TestErrorLaziness:
    """Compiling never raises: a bad expression over zero rows is
    silent, and the first evaluated row reports exactly what the
    interpreter reported."""

    BROKEN = {
        "SELECT nope FROM t": "unknown column: nope",
        "SELECT id FROM t WHERE t.nope = 1": "unknown column: t.nope",
        "SELECT id FROM t WHERE k / 0 > 1": "division by zero",
        "SELECT id FROM t WHERE k % 0 = 1": "modulo by zero",
        "SELECT NOSUCH(k) FROM t": "unknown function: NOSUCH",
        "SELECT id FROM t WHERE SUM(k) > 1 AND id IN (SELECT 1)": (
            "aggregate SUM used outside GROUP BY context"
        ),
        "SELECT id FROM t WHERE k = ?": "missing bind parameter at index 0",
        "SELECT id FROM t ORDER BY k + nope": "unknown column: nope",
        "SELECT k, COUNT(*) FROM t GROUP BY k HAVING nope > 1": (
            "unknown column: nope"
        ),
        "UPDATE t SET k = nope": "unknown column: nope",
        "DELETE FROM t WHERE nope = 1": "unknown column: nope",
    }

    @pytest.mark.parametrize("sql", sorted(BROKEN))
    def test_silent_over_an_empty_table(self, db, sql):
        db.execute(sql)

    @pytest.mark.parametrize("sql", sorted(BROKEN))
    def test_first_row_raises_the_same_message(self, db, sql):
        fill(db)
        with pytest.raises(ExecutionError) as raised:
            db.execute(sql)
        assert str(raised.value) == self.BROKEN[sql]

    def test_short_circuit_skips_the_broken_side(self, db):
        fill(db)
        assert db.execute("SELECT id FROM t WHERE k > 5 AND nope = 1").rows == []
        assert len(db.execute("SELECT id FROM t WHERE k > 0 OR nope = 1").rows) == 4

    def test_compile_itself_never_raises(self):
        layout = RowContext([("t", "k")], [None])
        for text in ("nope", "k / 0", "NOSUCH(k)", "SUM(k)", "CAST(k AS WIBBLE)"):
            closure = Evaluator().compile(parse_expression(text), layout)
            with pytest.raises(Exception):
                closure((1,))

    def test_type_errors_name_both_operands(self, db):
        fill(db)
        with pytest.raises(ExecutionError, match="cannot compare 'apple' with 1"):
            db.execute("SELECT id FROM t WHERE v < 1")
        with pytest.raises(ExecutionError, match=r"type error: 'apple' \+ 1"):
            db.execute("SELECT v + 1 FROM t")


class TestScoping:
    def test_ambiguous_unqualified_column(self, db):
        assert db.execute("SELECT k FROM t JOIN u ON t.id = u.id").rows == []
        fill(db)
        with pytest.raises(ExecutionError, match="ambiguous column reference: k"):
            db.execute("SELECT k FROM t JOIN u ON t.id = u.id")
        assert db.execute(
            "SELECT t.k FROM t JOIN u ON t.id = u.id ORDER BY t.id"
        ).rows == [(1,), (1,), (2,)]

    def test_correlated_subquery_reads_the_outer_row(self, db):
        fill(db)
        result = db.execute(
            "SELECT id, (SELECT COUNT(*) FROM t AS inner_t "
            "WHERE inner_t.k = t.k AND inner_t.id <> t.id) FROM t ORDER BY id"
        )
        assert result.rows == [(1, 1), (2, 1), (3, 0), (4, 0)]
        exists = db.execute(
            "SELECT id FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.k = t.k AND u.id < t.id) ORDER BY id"
        )
        assert exists.rows == [(2,), (3,), (4,)]

    def test_inner_scope_shadows_the_outer_one(self, db):
        fill(db)
        # Unqualified ``k`` inside the subquery is u.k, not the outer t.k.
        result = db.execute(
            "SELECT id FROM t WHERE id IN (SELECT id FROM u WHERE k = 2)"
        )
        assert result.rows == [(2,)]


class TestBinding:
    def test_bind_parameters(self, db):
        fill(db)
        assert db.execute(
            "SELECT id FROM t WHERE k = ? AND v LIKE ? ORDER BY id", (1, "a%")
        ).rows == [(1,), (2,)]
        assert db.execute("SELECT ? + ?", (2, 3)).scalar() == 5
        assert db.execute("SELECT id FROM t WHERE k = ?", (None,)).rows == []
        with pytest.raises(ExecutionError, match="missing bind parameter at index 1"):
            db.execute("SELECT id FROM t WHERE k = ? AND id = ?", (1,))

    def test_like_with_a_per_row_pattern(self, db):
        fill(db)
        result = db.execute(
            "SELECT t.v, u.pat FROM t JOIN u ON t.k = u.k "
            "WHERE t.v LIKE u.pat ORDER BY t.id"
        )
        assert result.rows == [("apple", "a%"), ("avocado", "a%"), ("banana", "%an%")]
        negated = db.execute(
            "SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE t.v NOT LIKE u.pat"
        )
        assert negated.scalar() == 0  # NULL LIKE 'x_' is NULL, not true

    def test_between_is_a_three_valued_and(self, db):
        fill(db)
        # 3 BETWEEN NULL AND 1  ==  (3 >= NULL) AND (3 <= 1)  ==  FALSE
        assert db.execute(
            "SELECT id FROM t WHERE NOT (k BETWEEN NULL AND 1) ORDER BY id"
        ).rows == [(3,), (4,)]
        assert db.execute("SELECT 1 BETWEEN NULL AND 2").scalar() is None


class TestGroupPass:
    def test_having_and_order_by_over_aggregates(self, db):
        fill(db)
        result = db.execute(
            "SELECT k, COUNT(*) FROM t GROUP BY k "
            "HAVING COUNT(*) >= 1 AND SUM(id) BETWEEN 3 AND 4 "
            "ORDER BY SUM(id) DESC"
        )
        assert result.rows == [(3, 1), (1, 2), (2, 1)]

    def test_aggregates_inside_any_expression_shape(self, db):
        fill(db)
        row = db.execute(
            "SELECT CASE WHEN COUNT(v) IN (3, 4) THEN 'most' ELSE 'few' END, "
            "MAX(v) LIKE 'b%', MIN(k) IS NULL, -SUM(k), "
            "CAST(COUNT(*) AS TEXT) || '!', ABS(MIN(id) - MAX(id)) FROM t"
        ).rows[0]
        assert row == ("most", True, False, -7, "4!", 3)

    def test_group_columns_come_from_the_first_row(self, db):
        fill(db)
        result = db.execute(
            "SELECT k, v, COUNT(*) FROM t WHERE k = 1 GROUP BY k"
        )
        assert result.rows == [(1, "apple", 2)]

    def test_aggregate_over_empty_input(self, db):
        assert db.execute(
            "SELECT COUNT(*), SUM(k), COUNT(*) + 1 FROM t"
        ).rows == [(0, None, 1)]
