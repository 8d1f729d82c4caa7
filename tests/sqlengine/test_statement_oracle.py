"""Whole statements of the columnar shapes, checked three ways.

``scan -> filter -> inner equi-join -> group/aggregate`` runs as numpy
batch operators (docs/sqlengine.md § Columnar execution). Every
generated statement here is one of those shapes, over generated
two-table data (fact ⋈ dimension: NULLs in keys, measures and group
columns, duplicate and unmatched keys, empty inputs), and is held to:

1. stdlib ``sqlite3``, as a multiset of rows — the independent oracle;
2. ``Database(optimize=False)`` — the naive row pipeline, which never
   goes columnar — cell for cell with ``==`` *and* ``type(...) is`` and
   in the same row order;
3. ``EXPLAIN`` saying ``[columnar]``, so a silent fall-back to the row
   pipeline cannot pass for coverage.

The directed cases below pin the decline rules: data the vectors cannot
represent exactly, and expressions that fail, go to the row pipeline
and give its answer or its error.
"""

import contextlib
import math
import sqlite3
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import get_cache_manager
from repro.sqlengine import Database, ExecutionError
from repro.sqlengine import executor

FACT = "CREATE TABLE fact (id INTEGER PRIMARY KEY, k INTEGER, q INTEGER, x REAL, g TEXT)"
DIM = "CREATE TABLE dim (k INTEGER, label TEXT, w INTEGER)"
PROFILE = settings(derandomize=True, deadline=None, max_examples=300)

fact_rows = st.lists(
    st.tuples(
        st.none() | st.integers(0, 4),
        st.none() | st.integers(-9, 9),
        # Multiples of 0.25 keep real sums exact in both engines.
        st.none() | st.integers(-32, 32).map(lambda n: n / 4),
        st.none() | st.sampled_from(["a", "A", "b", "ab", ""]),
    ),
    max_size=10,
).map(lambda drawn: [(i, *row) for i, row in enumerate(drawn)])
dim_rows = st.lists(
    st.tuples(
        st.none() | st.integers(0, 6),  # duplicates, NULLs, unmatched
        st.none() | st.sampled_from(["n", "s", "ne"]),
        st.integers(0, 3),
    ),
    max_size=6,
)


def _fmt(template):
    return lambda parts: template.format(*parts)


def _signed(number):
    return f"({number})" if number < 0 else str(number)


comparison = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])
integers = st.integers(-9, 9).map(_signed)
reals = st.sampled_from(["0.5", "(-2.25)", "1.0", "4.75", "0"])
fact_atom = st.one_of(
    st.tuples(comparison, integers).map(_fmt("fact.q {} {}")),
    st.tuples(comparison, reals).map(_fmt("fact.x {} {}")),
    st.tuples(integers, integers).map(_fmt("fact.q BETWEEN {} AND {}")),
    st.tuples(reals, reals).map(_fmt("fact.x BETWEEN {} AND {}")),
    st.tuples(comparison, st.integers(0, 4)).map(_fmt("fact.k {} {}")),
    # Not numeric masks: evaluated once per distinct value.
    st.sampled_from(["fact.g >= 'a'", "UPPER(fact.g) = 'A'", "ABS(fact.q) > 3"]),
)
dim_atom = st.one_of(
    st.tuples(comparison, st.integers(0, 3)).map(_fmt("dim.w {} {}")),
    st.sampled_from(["dim.label <> 's'", "LENGTH(dim.label) = 1"]),
)
fact_key = st.sampled_from(["fact.g", "fact.k", "UPPER(fact.g)", "ABS(fact.q)"])
dim_key = st.sampled_from(["dim.label", "dim.w", "LENGTH(dim.label)"])
fact_aggregate = st.one_of(
    st.just("COUNT(*)"),
    st.tuples(
        st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
        st.sampled_from(["fact.q", "fact.x", "fact.k"]),
    ).map(_fmt("{}({})")),
    st.just("COUNT(fact.g)"),
)
dim_aggregate = st.sampled_from(["COUNT(dim.label)", "SUM(dim.w)", "MAX(dim.w)"])
having = st.sampled_from(
    ["COUNT(*) > 1", "SUM(fact.q) IS NOT NULL", "MIN(fact.x) < 1.5"]
)


@st.composite
def statements(draw):
    joined = draw(st.booleans())
    atoms = draw(st.lists(fact_atom, max_size=2))
    keys = draw(st.lists(fact_key, max_size=2, unique=True))
    source = "fact"
    if joined:
        source = "fact JOIN dim ON fact.k = dim.k"
        atoms += draw(st.lists(dim_atom, max_size=1))
        keys = (keys + draw(st.lists(dim_key, max_size=1)))[:2]
    # A GROUP BY needs no aggregate at all; a bare select list does.
    aggregates = draw(
        st.lists(fact_aggregate, min_size=not keys, max_size=3, unique=True)
    )
    if joined:
        aggregates += draw(st.lists(dim_aggregate, max_size=1))
    sql = f"SELECT {', '.join(keys + aggregates)} FROM {source}"
    if atoms:
        sql += " WHERE " + " AND ".join(atoms)
    if keys:
        sql += " GROUP BY " + ", ".join(keys)
    if draw(st.booleans()):
        sql += " HAVING " + draw(having)
    if draw(st.booleans()):
        # Every output column, so ties are identical rows and a LIMIT
        # keeps the same multiset in both dialects.
        direction = draw(st.sampled_from(["", " DESC"]))
        columns = range(1, len(keys) + len(aggregates) + 1)
        sql += " ORDER BY " + ", ".join(f"{n}{direction}" for n in columns)
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(0, 4))}"
    return sql


def engines(fact, dim, fact_sql=FACT, dim_sql=DIM):
    pair = []
    for optimize in (True, False):
        db = Database(name="oracle", optimize=optimize)
        db.execute(fact_sql)
        db.execute(dim_sql)
        db.insert_rows("fact", fact)
        db.insert_rows("dim", dim)
        pair.append(db)
    return pair


def assert_identical(ours, naive, sql):
    """Equal cells of equal Python types in the same row order."""
    assert ours == naive, sql
    for row, wanted in zip(ours, naive):
        for cell, expected in zip(row, wanted):
            assert type(cell) is type(expected), (sql, cell, expected)
            assert not isinstance(cell, np.generic), (sql, cell)


def canonical(rows):
    """Rows as a sorted multiset comparable across dialects: TRUE/1 and
    2/2.0 agree, floats to 9 places."""
    def cell(value):
        if value is None:
            return (0, 0.0, "")
        if isinstance(value, str):
            return (2, 0.0, value)
        return (1, round(float(value), 9), "")

    return sorted(tuple(cell(value) for value in row) for row in rows)


def is_columnar(db, sql):
    plan = [row[0] for row in db.execute("EXPLAIN " + sql).rows]
    return any(line.startswith("Aggregate") and "[columnar]" in line for line in plan)


class TestColumnarStatements:
    @given(fact_rows, dim_rows, statements())
    @PROFILE
    def test_three_way_agreement(self, fact, dim, sql):
        ours, naive = engines(fact, dim)
        rows = ours.execute(sql).rows
        assert_identical(rows, naive.execute(sql).rows, sql)
        with sqlite3.connect(":memory:") as oracle:
            oracle.execute(FACT)
            oracle.execute(DIM)
            oracle.executemany("INSERT INTO fact VALUES (?, ?, ?, ?, ?)", fact)
            oracle.executemany("INSERT INTO dim VALUES (?, ?, ?)", dim)
            expected = oracle.execute(sql).fetchall()
        assert canonical(rows) == canonical(expected), (sql, rows, expected)
        assert is_columnar(ours, sql), sql
        assert not is_columnar(naive, sql), sql


class TestNoSurvivingRow:
    """GROUP BY over nothing has no group, whether or not the statement
    carries an aggregate; a bare aggregate has its one NULL row."""

    @pytest.mark.parametrize("fact", [[], [(1, 0, 1, 1.0, "a")]])
    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT g FROM fact WHERE x > 1e9 GROUP BY g", []),
            ("SELECT UPPER(g), k FROM fact WHERE x > 1e9 GROUP BY UPPER(g), k", []),
            ("SELECT g, COUNT(*) FROM fact WHERE x > 1e9 GROUP BY g", []),
            ("SELECT g FROM fact WHERE x > 1e9 GROUP BY g HAVING COUNT(*) >= 0", []),
            (
                "SELECT dim.label FROM fact JOIN dim ON fact.k = dim.k "
                "GROUP BY dim.label",
                [],
            ),
            ("SELECT COUNT(*), SUM(q), g FROM fact WHERE x > 1e9", [(0, None, None)]),
        ],
    )
    def test_matches_the_row_pipeline(self, fact, sql, expected):
        ours, naive = engines(fact, [])
        assert is_columnar(ours, sql)
        assert ours.execute(sql).rows == naive.execute(sql).rows == expected


def agree(fact, dim, sql, **schemas):
    """Optimized and naive engines agree bit for bit (``repr`` tells
    -0.0 from 0.0 and holds NaN equal to itself)."""
    ours, naive = engines(fact, dim, **schemas)
    rows = ours.execute(sql).rows
    assert repr(rows) == repr(naive.execute(sql).rows), sql
    assert is_columnar(ours, sql)  # the plan-time shape is covered
    return ours, rows


def declined(db, table, column):
    """The numeric vector of ``table.column`` was refused."""
    storage = db._storage(table)
    return storage._vectors[(storage.schema.column_index(column), "num")][1] is None


class TestDeclineRules:
    SCALAR = "SELECT COUNT(*), SUM(q), MIN(q), AVG(q) FROM fact WHERE q > 0"
    REALS = "SELECT g, SUM(x), MIN(x), MAX(x), COUNT(x) FROM fact WHERE x < 9 GROUP BY g"

    def test_integer_beyond_float_precision(self):
        fact = [(1, 0, 2**60, 1.0, "a"), (2, 0, 2**60 + 1, 1.0, "a"), (3, 0, 5, 1.0, "b")]
        db, rows = agree(fact, [], self.SCALAR)
        assert rows == [(3, 2**61 + 6, 5, (0.0 + 2**60 + (2**60 + 1) + 5) / 3)]
        assert declined(db, "fact", "q")

    def test_sum_that_float64_cannot_hold_exactly(self):
        # Each value has a vector; their running sum passes 2**53 — and
        # with 2,100 of them int64 — so the SUM goes to Python ints.
        fact = [(i, 0, 2**52 - 1, 0.0, "a") for i in range(2100)]
        db, rows = agree(fact, [], "SELECT SUM(q), MAX(q) FROM fact")
        assert rows == [(2100 * (2**52 - 1), 2**52 - 1)]
        assert not declined(db, "fact", "q")

    @pytest.mark.parametrize("odd", [math.nan, -0.0])
    def test_reals_without_a_faithful_vector(self, odd):
        fact = [(1, 0, 1, odd, "a"), (2, 0, 1, odd, "a"), (3, 0, 1, 2.5, "b")]
        db, rows = agree(fact, [], self.REALS)
        assert declined(db, "fact", "x")
        # The same column as a group key and as a per-distinct predicate.
        agree(fact, [], "SELECT x, COUNT(*) FROM fact GROUP BY x")
        agree(fact, [], "SELECT COUNT(*) FROM fact WHERE CAST(x AS TEXT) <> '0.0'")

    def test_infinities_stay_columnar(self):
        inf = math.inf
        fact = [(1, 0, 1, inf, "a"), (2, 0, 1, -inf, "a"), (3, 0, 1, inf, "b"), (4, 0, 1, 1.0, "b")]
        db, rows = agree(fact, [], "SELECT g, SUM(x), MIN(x), MAX(x) FROM fact GROUP BY g")
        assert math.isnan(rows[0][1]) and rows[0][2:] == (-inf, inf)
        assert rows[1] == ("b", inf, 1.0, inf)
        assert not declined(db, "fact", "x")

    def test_integer_key_joins_real_key(self):
        dim = [(1.0, "one", 0), (2.5, "frac", 0), (None, "null", 0)]
        fact = [(1, 1, 10, 0.0, "a"), (2, 2, 20, 0.0, "a"), (3, None, 30, 0.0, "a")]
        _db, rows = agree(
            fact,
            dim,
            "SELECT dim.label, SUM(fact.q) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.label",
            dim_sql="CREATE TABLE dim (k REAL, label TEXT, w INTEGER)",
        )
        assert rows == [("one", 10)]

    def test_join_emits_probe_then_heap_order(self):
        dim = [(1, "late", 0), (0, "first", 0), (1, "later", 0)]
        fact = [(1, 1, 1, 0.0, "a"), (2, 0, 2, 0.0, "a"), (3, 1, 4, 0.0, "a")]
        _db, rows = agree(
            fact,
            dim,
            "SELECT dim.label, SUM(fact.q), COUNT(*) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.label",
        )
        assert rows == [("late", 5, 2), ("later", 5, 2), ("first", 2, 1)]

    def test_error_only_on_filtered_out_rows_stays_silent(self):
        # SQRT(-4) would raise, but three-valued AND never evaluates it
        # on a row whose first conjunct is false.
        fact = [(1, 0, -4, 1.0, "a"), (2, 0, 9, 1.0, "a"), (3, 0, None, 1.0, "a")]
        sql = "SELECT COUNT(*) FROM fact WHERE q > 0 AND SQRT(q) >= 3"
        _db, rows = agree(fact, [], sql)
        assert rows == [(1,)]

    def test_error_on_a_row_the_row_path_evaluates_is_raised(self):
        # ``x > 0`` is NULL on row 1, so AND goes on to SQRT(-4).
        fact = [(1, 0, -4, None, "a"), (2, 0, 9, 1.0, "a")]
        sql = "SELECT COUNT(*) FROM fact WHERE x > 0 AND SQRT(q) >= 3"
        for db in engines(fact, []):
            with pytest.raises(ExecutionError, match="SQRT"):
                db.execute(sql)

    def test_failing_group_key_raises_the_row_path_error(self):
        fact = [(1, 0, -4, 1.0, "a"), (2, 0, 9, 1.0, "a")]
        for db in engines(fact, []):
            with pytest.raises(ExecutionError, match="SQRT"):
                db.execute("SELECT SQRT(q), COUNT(*) FROM fact GROUP BY SQRT(q)")

    def test_non_numeric_bound_takes_the_closure(self):
        # `mixed-type-equality` (docs/sqlengine.md): a number never
        # equals a string. The mask declines the bound, not the answer.
        fact = [(1, 0, 5, 1.0, "a")]
        _db, rows = agree(fact, [], "SELECT COUNT(*) FROM fact WHERE q = '5'")
        assert rows == [(0,)]
        ours, naive = engines(fact, [])
        sql = "SELECT COUNT(*) FROM fact WHERE q >= ?"
        for bound, count in ((5, 1), (5.5, 0), (None, 0), (2**60, 0)):
            assert ours.execute(sql, [bound]).rows == [(count,)]
            assert naive.execute(sql, [bound]).rows == [(count,)]


# -- the dictionary shape ----------------------------------------------------
#
# ``SELECT DISTINCT c FROM t [WHERE c IS NOT NULL]`` reads the column's
# dictionary, whose values are its distinct values in first-seen order,
# extended after each INSERT and rebuilt after UPDATE/DELETE. Each probe
# runs before and after a write, against the same three references.

PROBE = "CREATE TABLE p (id INTEGER PRIMARY KEY, t TEXT, i INTEGER, r REAL)"
INSERT_PROBE = "INSERT INTO p VALUES (?, ?, ?, ?)"
probe_rows = st.lists(
    st.tuples(
        st.none() | st.sampled_from(["a", "A", "b", ""]),
        st.none() | st.integers(-2, 2),
        # -0.0 and NaN have no faithful dictionary: those probes decline.
        st.sampled_from([None, 0.5, 0.0, 1.0, 2.25] * 4 + [-0.0, math.nan]),
    ),
    max_size=8,
)
WRITES = {
    "insert": (),  # the drawn rows
    "update": ("UPDATE p SET t = NULL, i = i + 1, r = -r WHERE id > 2",),
    "delete": ("DELETE FROM p WHERE id < 2",),
    "rollback": (
        "BEGIN",
        "DELETE FROM p WHERE id > 0",
        "INSERT INTO p VALUES (99, 'new', 9, 9.5)",
        "ROLLBACK",
    ),
}


@st.composite
def probes(draw):
    """A DISTINCT over one column, qualified or aliased or not, and
    whether it is the dictionary shape."""
    column = draw(st.sampled_from(["t", "i", "r"]))
    prefix, source = draw(st.sampled_from([("", "p"), ("p.", "p"), ("z.", "p AS z")]))
    ref = prefix + column
    shaped = ["", f" WHERE {ref} IS NOT NULL"]
    where = draw(st.sampled_from(shaped + [f" WHERE {ref} IS NULL", f" WHERE {ref} IS NOT NULL AND id > 1"]))
    tail = draw(st.sampled_from(["", " LIMIT 2", " LIMIT 2 OFFSET 1", " LIMIT -1 OFFSET 2", " ORDER BY 1"]))
    alias = draw(st.sampled_from(["", " AS v"]))
    sql = f"SELECT DISTINCT {ref}{alias} FROM {source}{where}{tail}"
    return sql, column, where in shaped and "ORDER" not in tail


@contextlib.contextmanager
def row_distinct_passes():
    """The row pipeline's DISTINCT passes made inside the block."""
    passes = []
    row_distinct = executor._distinct

    def counted(relation):
        passes.append(relation)
        return row_distinct(relation)

    with mock.patch.object(executor, "_distinct", counted):
        yield passes


def check_probe(dbs, oracle, sql, column, shape):
    ours, naive = dbs
    # A write may be a no-op (no rows to insert), so a cached result
    # could answer the probe without the engine; count engine work.
    get_cache_manager().clear("sql")
    with row_distinct_passes() as passes:
        rows = ours.execute(sql).rows
    expected = naive.execute(sql).rows
    storage = ours._storage("p")
    nan = any(row[3] != row[3] for row in storage.rows())
    # ``repr`` holds NaN equal to itself and tells -0.0 from 0.0.
    assert repr(rows) == repr(expected), sql
    if not nan:
        assert_identical(rows, expected, sql)
    if "LIMIT" not in sql and not nan:  # sqlite stores NaN as NULL
        assert canonical(rows) == canonical(oracle.execute(sql).fetchall()), sql
    marked = "Distinct [columnar]" in [row[0] for row in ours.execute("EXPLAIN " + sql).rows]
    assert marked == shape, sql
    vector = storage._vectors.get((storage.schema.column_index(column), "dict"))
    declined = vector is not None and vector[1] is None
    assert (not passes) == (shape and not declined), sql


class TestDictionaryDistinct:
    @given(probe_rows, probes(), st.sampled_from(sorted(WRITES)), probe_rows)
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_agrees_before_and_after_a_write(self, rows, probe, write, more):
        dbs = [Database(name="oracle", optimize=optimize) for optimize in (True, False)]
        oracle = sqlite3.connect(":memory:", isolation_level=None)
        statements = [(INSERT_PROBE, (i, *row)) for i, row in enumerate(rows)]
        for target in (*dbs, oracle):
            target.execute(PROBE)
            for statement in statements:
                target.execute(*statement)
        check_probe(dbs, oracle, *probe)
        if write == "insert":
            statements = [(INSERT_PROBE, (len(rows) + i, *row)) for i, row in enumerate(more)]
        else:
            statements = [(sql, ()) for sql in WRITES[write]]
        for target in (*dbs, oracle):
            for statement in statements:
                target.execute(*statement)
        check_probe(dbs, oracle, *probe)
        oracle.close()

    @pytest.mark.parametrize(
        "values, expected",
        [
            (["a", None, "b", "a", None], ["a", None, "b"]),
            ([None, "b", None, "a"], [None, "b", "a"]),
            (["a", "b", "a"], ["a", "b"]),
        ],
    )
    def test_null_takes_its_first_seen_place(self, values, expected):
        db = Database()
        db.execute(PROBE)
        db.insert_rows("p", [(i, v, None, None) for i, v in enumerate(values)])
        with row_distinct_passes() as passes:
            assert db.execute("SELECT DISTINCT t FROM p").column("t") == expected
            assert db.execute("SELECT DISTINCT t FROM p LIMIT 1 OFFSET 1").rows == [
                (expected[1],)
            ]
        assert passes == []
