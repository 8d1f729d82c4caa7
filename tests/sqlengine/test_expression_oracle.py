"""Expression semantics checked against an independent oracle: sqlite3.

The compiled closures in ``repro.sqlengine.expressions`` are the only
implementation of SQL expression semantics in the repo, and the planner
fuzz compares two pipelines that share them — so this file runs the
same typed, fully parenthesised expressions through stdlib ``sqlite3``
and through the engine and demands equal results, in the select list,
in WHERE, and in GROUP BY / HAVING / ORDER BY over aggregates.

The generator is typed (integer, real, text, predicate) so it never
produces a construct on which the two dialects *deliberately* differ;
those are named in ``DIALECT_DIFFERENCES``, pinned one by one in
``TestDocumentedDifferences`` and listed in ``docs/sqlengine.md``.
"""

import functools
import math
import pathlib
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine import Database, SqlEngineError

#: name -> (sql over table ``t``, the engine's answer, sqlite's answer);
#: ``SqlEngineError`` as the engine's answer means the statement raises.
DIALECT_DIFFERENCES = {
    "exact-int-division": ("SELECT 7 / 2", 3.5, 3),
    "zero-division-raises": ("SELECT 1 / 0", SqlEngineError, None),
    "floored-modulo": ("SELECT (0 - 7) % 3", 2, -1),
    "mixed-type-equality": ("SELECT COUNT(*) FROM t WHERE s = 5", 0, 1),
    "unicode-like": ("SELECT 'É' LIKE 'é'", True, 0),
    "strict-cast": ("SELECT CAST(1.5 AS INTEGER)", SqlEngineError, 1),
    "date-string-coercion": (
        "SELECT COUNT(*) FROM t WHERE d = '2024-02-01 00:00:00'", 1, 0
    ),
    "ungrouped-column": (
        "SELECT s, MAX(n) FROM (SELECT 'a' AS s, 1 AS n "
        "UNION ALL SELECT 'b', 2) AS x",
        "a",
        "b",
    ),
}

SCHEMA = "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, x REAL, s TEXT, u TEXT)"
PROFILE = settings(derandomize=True, deadline=None, max_examples=120)

TEXTS = ["", "a", "A", "ab", "Ab", "b_", "a%b", " a ", "5"]
rows = st.lists(
    st.tuples(
        st.none() | st.integers(-9, 9),
        st.none() | st.integers(-9, 9),
        # Multiples of 0.25 keep real arithmetic exact in both engines.
        st.none() | st.integers(-32, 32).map(lambda n: n / 4),
        st.none() | st.sampled_from(TEXTS),
        st.none() | st.sampled_from(TEXTS + ["a%", "_b", "%"]),
    ),
    max_size=8,
).map(lambda drawn: [(i, *row) for i, row in enumerate(drawn)])


def _fmt(template):
    return lambda parts: template.format(*parts)


def _signed(number):
    # "(-3)", never "-3": "--" would open a comment after a unary minus.
    return f"({number})" if number < 0 else str(number)


int_literal = st.integers(-9, 9).map(_signed)
real_literal = st.sampled_from(["0.5", "1.5", "2.25", "(-0.75)", "4.0"])
text_literal = st.sampled_from(TEXTS).map(lambda text: f"'{text}'")
pattern_literal = st.sampled_from(
    ["'%'", "'a%'", "'%b'", "'_'", "'a_'", "'%a%'", "'A%'", "'_%_'", "''", "' %'"]
)
comparison = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])


@functools.lru_cache(maxsize=None)
def integer(depth):
    leaves = st.sampled_from(["a", "b", "NULL"]) | int_literal
    if depth == 0:
        return leaves
    sub, text, truth = integer(depth - 1), string(depth - 1), predicate(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(_fmt("({} {} {})")),
        sub.map("(-{})".format),
        # % only over a non-negative dividend and a positive divisor:
        # see "floored-modulo" and "zero-division-raises".
        st.tuples(sub, st.integers(1, 9)).map(_fmt("(ABS({}) % {})")),
        sub.map("ABS({})".format),
        sub.map("CAST({} AS INTEGER)".format),
        st.tuples(st.sampled_from(["COALESCE", "IFNULL", "NULLIF"]), sub, sub).map(
            _fmt("{}({}, {})")
        ),
        st.tuples(truth, sub, sub).map(_fmt("CASE WHEN {} THEN {} ELSE {} END")),
        st.tuples(truth, sub).map(_fmt("CASE WHEN {} THEN {} END")),
        text.map("LENGTH({})".format),
        st.tuples(text, st.sampled_from(["'a'", "'b'", "' '"])).map(
            _fmt("INSTR({}, {})")
        ),
    )


@functools.lru_cache(maxsize=None)
def real(depth):
    leaves = st.sampled_from(["x", "x", "NULL"]) | real_literal
    if depth == 0:
        return leaves
    sub, whole = real(depth - 1), integer(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, st.sampled_from("+-*"), sub | whole).map(_fmt("({} {} {})")),
        # / only with a real dividend and a non-zero literal divisor:
        # see "exact-int-division" and "zero-division-raises".
        st.tuples(sub, st.sampled_from(["2", "4.0", "(-0.5)"])).map(_fmt("({} / {})")),
        sub.map("(-{})".format),
        sub.map("ABS({})".format),
        whole.map("CAST({} AS REAL)".format),
        st.tuples(sub, sub).map(_fmt("COALESCE({}, {})")),
        st.tuples(predicate(depth - 1), sub, sub).map(
            _fmt("CASE WHEN {} THEN {} ELSE {} END")
        ),
    )


@functools.lru_cache(maxsize=None)
def string(depth):
    leaves = st.sampled_from(["s", "u", "NULL"]) | text_literal
    if depth == 0:
        return leaves
    sub = string(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, sub | integer(depth - 1)).map(_fmt("({} || {})")),
        st.tuples(
            st.sampled_from(["UPPER", "LOWER", "TRIM", "LTRIM", "RTRIM"]), sub
        ).map(_fmt("{}({})")),
        st.tuples(sub, st.integers(1, 3), st.integers(0, 3)).map(
            _fmt("SUBSTR({}, {}, {})")
        ),
        st.tuples(sub, st.integers(1, 3)).map(_fmt("SUBSTR({}, {})")),
        st.tuples(sub, st.sampled_from(["'a'", "'A'", "'b_'"]), text_literal).map(
            _fmt("REPLACE({}, {}, {})")
        ),
        integer(depth - 1).map("CAST({} AS TEXT)".format),
        st.tuples(sub, sub).map(_fmt("COALESCE({}, {})")),
        st.tuples(predicate(depth - 1), sub, sub).map(
            _fmt("CASE WHEN {} THEN {} ELSE {} END")
        ),
    )


@functools.lru_cache(maxsize=None)
def predicate(depth):
    """Comparisons stay inside one type group (number with number,
    text with text): see "mixed-type-equality"."""
    level = max(depth - 1, 0)
    number = integer(level) | real(level)
    text = string(level)
    negation = st.sampled_from(["", "NOT "])
    atoms = st.one_of(
        st.tuples(number, comparison, number).map(_fmt("({} {} {})")),
        st.tuples(text, comparison, text).map(_fmt("({} {} {})")),
        st.tuples(number, negation, number, number).map(
            _fmt("({} {}BETWEEN {} AND {})")
        ),
        st.tuples(text, negation, text, text).map(_fmt("({} {}BETWEEN {} AND {})")),
        st.tuples(
            number, negation, st.lists(number, min_size=1, max_size=4).map(", ".join)
        ).map(_fmt("({} {}IN ({}))")),
        st.tuples(
            text, negation, st.lists(text, min_size=1, max_size=3).map(", ".join)
        ).map(_fmt("({} {}IN ({}))")),
        st.tuples(number | text, st.sampled_from(["IS NULL", "IS NOT NULL"])).map(
            _fmt("({} {})")
        ),
        # LIKE with a literal pattern (pre-compiled) and a per-row one.
        st.tuples(text, negation, pattern_literal | text).map(_fmt("({} {}LIKE {})")),
    )
    if depth == 0:
        return atoms
    sub = predicate(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(sub, st.sampled_from(["AND", "OR"]), sub).map(_fmt("({} {} {})")),
        sub.map("(NOT {})".format),
    )


def any_expression(depth):
    return integer(depth) | real(depth) | string(depth) | predicate(depth)


def aggregate(depth):
    whole, number = integer(depth), integer(depth) | real(depth)
    return st.one_of(
        st.just("COUNT(*)"),
        (number | string(depth)).map("COUNT({})".format),
        whole.map("COUNT(DISTINCT {})".format),
        number.map("SUM({})".format),
        whole.map("SUM(DISTINCT {})".format),
        number.map("AVG({})".format),
        st.tuples(st.sampled_from(["MIN", "MAX"]), number | string(depth)).map(
            _fmt("{}({})")
        ),
    )


#: Always mentions a column: a bare integer literal after GROUP BY is
#: an output ordinal in both dialects.
group_key = st.one_of(
    st.sampled_from(["a", "b", "s", "u"]),
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from("+-*"), integer(1)).map(
        _fmt("({} {} {})")
    ),
    st.tuples(st.sampled_from(["a", "b"]), st.integers(1, 4)).map(
        _fmt("(ABS({}) % {})")
    ),
    st.tuples(st.sampled_from(["s", "u"]), string(1)).map(_fmt("({} || {})")),
)
numeric_aggregate = st.one_of(
    st.just("COUNT(*)"),
    st.tuples(
        st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
        integer(1) | real(1),
    ).map(_fmt("{}({})")),
)
having_atom = st.one_of(
    st.tuples(numeric_aggregate, comparison, int_literal).map(_fmt("({} {} {})")),
    st.tuples(numeric_aggregate, int_literal, int_literal).map(
        _fmt("({} BETWEEN {} AND {})")
    ),
    st.tuples(numeric_aggregate, st.sampled_from(["IS NULL", "IS NOT NULL"])).map(
        _fmt("({} {})")
    ),
    st.tuples(numeric_aggregate, st.sampled_from("+-*"), numeric_aggregate).map(
        _fmt("(({} {} {}) > 0)")
    ),
)
having = st.one_of(
    having_atom,
    st.tuples(having_atom, st.sampled_from(["AND", "OR"]), having_atom).map(
        _fmt("({} {} {})")
    ),
    having_atom.map("(NOT {})".format),
)


def run_both(table, sql):
    engine = Database(name="oracle")
    engine.execute(SCHEMA)
    if table:
        engine.insert_rows("t", table)
    with sqlite3.connect(":memory:") as oracle:
        oracle.execute(SCHEMA)
        oracle.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", table)
        expected = oracle.execute(sql).fetchall()
    return engine.execute(sql).rows, expected


def same_value(ours, theirs):
    if ours is None or theirs is None:
        return ours is theirs
    if isinstance(ours, str) or isinstance(theirs, str):
        return type(ours) is type(theirs) and ours == theirs
    # TRUE/FALSE here, 1/0 there; int 2 here, 2.0 there.
    return math.isclose(float(ours), float(theirs), rel_tol=1e-9, abs_tol=1e-9)


def assert_same_rows(table, sql):
    ours, expected = run_both(table, sql)
    assert len(ours) == len(expected), (sql, ours, expected)
    for row, wanted in zip(ours, expected):
        assert len(row) == len(wanted) and all(map(same_value, row, wanted)), (
            sql,
            ours,
            expected,
        )


class TestAgainstSqlite:
    @given(rows, any_expression(2))
    @PROFILE
    def test_select_list_expression(self, table, expression):
        assert_same_rows(table, f"SELECT id, {expression} FROM t ORDER BY id")

    @given(rows, predicate(3))
    @PROFILE
    def test_where_predicate(self, table, where):
        assert_same_rows(table, f"SELECT id FROM t WHERE {where} ORDER BY id")

    @given(rows, group_key, st.lists(aggregate(1), min_size=1, max_size=3), predicate(1))
    @PROFILE
    def test_grouped_aggregates(self, table, key, aggregates, where):
        assert_same_rows(
            table,
            f"SELECT {key}, {', '.join(aggregates)} FROM t WHERE {where} "
            f"GROUP BY {key} ORDER BY 1",
        )

    @given(rows, group_key, numeric_aggregate, having, st.sampled_from(["", " DESC"]))
    @PROFILE
    def test_having_and_order_over_aggregates(
        self, table, key, measure, condition, direction
    ):
        assert_same_rows(
            table,
            f"SELECT {key}, {measure} FROM t GROUP BY {key} "
            f"HAVING {condition} ORDER BY {measure}{direction}, 1",
        )

    @given(rows, st.lists(aggregate(1), min_size=1, max_size=3), predicate(1))
    @PROFILE
    def test_scalar_aggregates(self, table, aggregates, where):
        assert_same_rows(table, f"SELECT {', '.join(aggregates)} FROM t WHERE {where}")


class TestDocumentedDifferences:
    """Each deliberate dialect difference, pinned on both sides."""

    TABLE_SQL = "CREATE TABLE t (s TEXT, d {date})"

    @pytest.mark.parametrize("name", sorted(DIALECT_DIFFERENCES))
    def test_difference_is_as_documented(self, name):
        sql, ours, theirs = DIALECT_DIFFERENCES[name]
        engine = Database(name="dialect")
        engine.execute(self.TABLE_SQL.format(date="DATE"))
        engine.execute("INSERT INTO t VALUES ('5', '2024-02-01')")
        if ours is SqlEngineError:
            with pytest.raises(SqlEngineError):
                engine.execute(sql)
        else:
            value = engine.execute(sql).scalar()
            assert value == ours and type(value) is type(ours)
        with sqlite3.connect(":memory:") as oracle:
            oracle.execute(self.TABLE_SQL.format(date="TEXT"))
            oracle.execute("INSERT INTO t VALUES ('5', '2024-02-01')")
            assert oracle.execute(sql).fetchone()[0] == theirs

    def test_every_difference_is_documented(self):
        docs = pathlib.Path(__file__).resolve().parents[2] / "docs" / "sqlengine.md"
        text = docs.read_text()
        missing = [name for name in DIALECT_DIFFERENCES if f"`{name}`" not in text]
        assert not missing, f"undocumented dialect differences: {missing}"
