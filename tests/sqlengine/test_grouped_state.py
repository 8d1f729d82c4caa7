"""Grouped state under writes: the served answer is always a recompute.

A prepared columnar grouped core keeps its groups and partial
aggregates on its plan and folds only appended rows into them
(docs/sqlengine.md § Grouped state). The model-based test interleaves
INSERT, UPDATE, DELETE, BEGIN, COMMIT, ROLLBACK and CREATE INDEX with
the dashboard shapes; after every step each shape's served answer
(``Database.execute``: the result cache, then the grouped state) must
equal a fresh recompute exactly — values, Python types, row order —
and stdlib ``sqlite3`` as a multiset.
"""

import collections
import cProfile
import functools
import pstats
import sqlite3
import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.sqlengine import Database, parse_sql
from repro.sqlengine import columnar, executor

FACT = "CREATE TABLE fact (id INTEGER, k INTEGER, q INTEGER, x REAL, g TEXT)"
DIM = "CREATE TABLE dim (k INTEGER, label TEXT, w INTEGER)"

#: The dashboard shapes: joins with the fact table probing, grouped by
#: a dimension column or an expression, keyless aggregates, a core
#: whose growing table is the build side, and one over ``dim`` only.
SHAPES = (
    "SELECT dim.label, COUNT(*) FROM fact JOIN dim ON fact.k = dim.k "
    "WHERE fact.x > 0.5 GROUP BY dim.label",
    "SELECT dim.label, SUM(fact.x), AVG(fact.q), MIN(fact.q) FROM fact "
    "JOIN dim ON fact.k = dim.k GROUP BY dim.label",
    "SELECT UPPER(fact.g), SUM(fact.q), MIN(fact.x), MAX(fact.q) FROM fact "
    "WHERE fact.q BETWEEN -5 AND 7 GROUP BY UPPER(fact.g)",
    "SELECT COUNT(*), SUM(fact.q), AVG(fact.x), MAX(fact.x) FROM fact "
    "WHERE fact.g <> 'b'",
    "SELECT fact.g, fact.k, COUNT(fact.g), SUM(fact.x) FROM fact "
    "GROUP BY fact.g, fact.k",
    "SELECT dim.label, SUM(fact.q) FROM dim JOIN fact ON dim.k = fact.k "
    "GROUP BY dim.label",
    "SELECT label, COUNT(*), AVG(w) FROM dim WHERE w > 0 GROUP BY label",
)

#: Bare columns read the group's first entry (sqlite picks any row).
FIRST_ENTRY = (
    "SELECT fact.g, fact.id, dim.w, COUNT(*) FROM fact "
    "JOIN dim ON fact.k = dim.k GROUP BY fact.g"
)

fact_rows = st.lists(
    st.tuples(
        st.none() | st.integers(0, 4),
        st.none() | st.integers(-9, 9),
        # Inexact in binary, so a sum's bits depend on its order; never
        # -0.0, which sends the column to the row pipeline.
        st.none()
        | st.floats(-9, 9).map(lambda value: round(value, 3) or 0.0),
        st.none() | st.sampled_from(["a", "A", "b", "ab", ""]),
    ),
    min_size=1,
    max_size=6,
)
labels = st.none() | st.sampled_from(["n", "s", "ne"])
dim_rows = st.lists(
    st.tuples(st.none() | st.integers(0, 5), labels, st.integers(0, 3)),
    min_size=1,
    max_size=2,
)


@functools.lru_cache(maxsize=None)
def parsed(sql):
    return parse_sql(sql)


def canonical(rows):
    def cell(value):
        if value is None:
            return (0, 0.0, "")
        if isinstance(value, str):
            return (2, 0.0, value)
        return (1, round(float(value), 9), "")

    return sorted(tuple(cell(value) for value in row) for row in rows)


class GroupedState(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = Database("model")
        self.oracle = sqlite3.connect(":memory:", isolation_level=None)
        for statement in (FACT, DIM):
            self.both(statement)
        self.next_id = 0
        self.indexes = 0
        self.in_transaction = False

    def both(self, sql, parameters=()):
        self.db.execute(sql, parameters)
        self.oracle.execute(sql, parameters)

    @initialize(fact=fact_rows, labels=st.lists(labels, min_size=5, max_size=5))
    def load(self, fact, labels):
        for k, label in enumerate(labels):
            self.both("INSERT INTO dim VALUES (?, ?, ?)", (k, label, k % 4))
        self.insert_fact(fact)

    @rule(rows=fact_rows)
    def insert_fact(self, rows):
        for row in rows:
            self.both(
                "INSERT INTO fact VALUES (?, ?, ?, ?, ?)", (self.next_id, *row)
            )
            self.next_id += 1

    @rule(rows=dim_rows)
    def insert_dim(self, rows):
        for row in rows:
            self.both("INSERT INTO dim VALUES (?, ?, ?)", row)

    @rule(
        k=st.integers(0, 4),
        delta=st.integers(1, 3),
        step=st.sampled_from(["0.1", "(-0.7)"]),
    )
    def update_fact(self, k, delta, step):
        self.both(f"UPDATE fact SET q = q + {delta}, x = x + {step} WHERE k = {k}")

    @rule(id=st.integers(0, 40))
    def delete_fact(self, id):
        self.both(f"DELETE FROM fact WHERE id = {id}")

    @rule(k=st.integers(0, 5))
    def delete_dim(self, k):
        self.both(f"DELETE FROM dim WHERE k = {k}")

    @precondition(lambda self: not self.in_transaction)
    @rule()
    def begin(self):
        self.both("BEGIN")
        self.in_transaction = True

    @precondition(lambda self: self.in_transaction)
    @rule()
    def commit(self):
        self.both("COMMIT")
        self.in_transaction = False

    @precondition(lambda self: self.in_transaction)
    @rule()
    def rollback(self):
        self.both("ROLLBACK")
        self.in_transaction = False

    @precondition(lambda self: self.indexes < 2)
    @rule(column=st.sampled_from(["k", "q", "g"]))
    def create_index(self, column):
        self.indexes += 1
        self.both(f"CREATE INDEX idx_{self.indexes} ON fact ({column})")

    @rule(bounds=st.lists(st.integers(-9, 9), min_size=2, max_size=3))
    def parameterised_shape(self, bounds):
        sql = "SELECT g, SUM(q), COUNT(*) FROM fact WHERE q > ? GROUP BY g"
        for bound in bounds:
            self.check(sql, (bound,))

    @invariant()
    def served_equals_recompute_and_sqlite(self):
        for sql in SHAPES:
            self.check(sql)

    def check(self, sql, parameters=()):
        served = self.db.execute(sql, parameters).rows
        # A statement run without its prepared entry plans afresh and
        # starts its grouped state from row 0.
        fresh = self.db.execute_statement(parsed(sql), parameters).rows
        assert repr(served) == repr(fresh), sql
        expected = self.oracle.execute(sql, parameters).fetchall()
        assert canonical(served) == canonical(expected), (sql, served, expected)

    def teardown(self):
        self.oracle.close()


GroupedState.TestCase.settings = settings(
    derandomize=True,
    deadline=None,
    max_examples=20,
    stateful_step_count=20,
)
TestGroupedStateMachine = GroupedState.TestCase


@pytest.fixture
def builds(monkeypatch):
    """Counts the grouped cores built from row 0."""
    calls = []
    empty = executor._empty_groups

    def counted(*args):
        calls.append(args)
        return empty(*args)

    monkeypatch.setattr(executor, "_empty_groups", counted)
    return calls


def dashboard_db():
    db = Database("dash")
    db.execute(FACT)
    db.execute(DIM)
    db.insert_rows("dim", [(k, "abc"[k % 3], k) for k in range(5)])
    db.insert_rows(
        "fact", [(i, i % 5, i % 7, i / 4, "ab"[i % 2]) for i in range(200)]
    )
    return db


class TestFolding:
    SQL = SHAPES[1]

    def test_appended_rows_fold_into_the_state(self, builds):
        db = dashboard_db()
        db.execute("INSERT INTO fact VALUES (200, 7, 3, 0.5, 'b')")  # no dim.k
        db.execute("INSERT INTO dim VALUES (9, 'z', 2)")  # no fact.k yet
        db.execute(self.SQL)
        assert len(builds) == 1
        # fact.k: matched; new to its dictionary but in dim; NULL; new
        # and not in dim; known but not in dim; the new key once more.
        for id, k in enumerate((1, 9, None, 8, 7, 9), 201):
            db.execute("INSERT INTO fact VALUES (?, ?, 3, 0.75, 'a')", (id, k))
            built = len(builds)
            served = db.execute(self.SQL).rows
            assert len(builds) == built  # folded, not rebuilt
            fresh = db.execute_statement(parse_sql(self.SQL)).rows
            assert repr(served) == repr(fresh), k

    def test_a_fold_reads_only_the_fact_rows_and_sorts_nothing(self):
        db = dashboard_db()
        db.execute(self.SQL)
        db.insert_rows("fact", [(200 + i, i % 7, 1, 0.5, "a") for i in range(20)])
        calls = profiled_calls(lambda: db.execute(self.SQL))
        assert calls["_fold_groups"] == 1
        assert calls["_selection"] == 1  # the fact scan; dim is on the state
        for method in ("argsort", "sort", "searchsorted"):
            assert calls[f"<method '{method}' of 'numpy.ndarray' objects>"] == 0

    @pytest.mark.parametrize(
        "write",
        [
            "UPDATE fact SET q = 0 WHERE id = 3",
            "DELETE FROM fact WHERE id = 3",
            "INSERT INTO dim VALUES (9, 'z', 1)",
            "CREATE INDEX idx_k ON fact (k)",
        ],
    )
    def test_other_writes_rebuild(self, builds, write):
        db = dashboard_db()
        db.execute(self.SQL)
        db.execute(write)
        served = db.execute(self.SQL).rows
        assert len(builds) == 2
        assert repr(served) == repr(
            db.execute_statement(parse_sql(self.SQL)).rows
        )

    def test_state_grows_with_groups_not_rows(self):
        db = dashboard_db()
        sql = (
            "SELECT dim.label, SUM(fact.q), MIN(fact.x) FROM fact "
            "JOIN dim ON fact.k = dim.k GROUP BY dim.label"
        )
        db.execute(sql)
        (state,) = grouped_states(db)
        assert state.builds  # the join's build side is held, and counted
        before = state.nbytes()
        db.insert_rows(
            "fact", [(i, i % 5, 2, 0.5, "ab"[i % 2]) for i in range(200, 5200)]
        )
        db.execute(sql)
        (state,) = grouped_states(db)
        assert state.folded == 5200
        assert state.nbytes() == before
        assert state.nbytes() < 2000

    def test_parameters_are_part_of_the_state(self):
        db = dashboard_db()
        sql = "SELECT g, COUNT(*) FROM fact WHERE q > ? GROUP BY g"
        db.execute(sql, (5,))
        db.execute("INSERT INTO fact VALUES (200, 1, 6, 0.5, 'a')")
        for bound in (5, 0, 5):
            assert db.execute(sql, (bound,)).rows == db.execute_statement(
                parse_sql(sql), (bound,)
            ).rows


@pytest.mark.parametrize("dict_pass", [0, 10**6])
def test_sorted_and_dict_grouping_answer_as_the_row_pipeline(
    monkeypatch, dict_pass
):
    """Every batch grouped by a sort (a 0-row dict-pass bound) or by a
    dict pass: each shape built over 600 rows and then folded must be
    the row pipeline's answer, bit for bit (``i / 10`` sums round), and
    a bare column must come from its group's first entry."""
    monkeypatch.setattr(columnar, "DICT_PASS", dict_pass)
    ours, rows = Database("ours"), Database("rows", optimize=False)
    fact = [
        (i, None if i % 11 == 0 else i % 6, i % 7 - 3, i / 10, "ab"[i % 2])
        for i in range(600)
    ]
    dim = [(k % 5, "nse"[k % 3] if k % 4 else None, k % 3) for k in range(7)]
    for db in (ours, rows):
        db.execute(FACT)
        db.execute(DIM)
        db.insert_rows("dim", dim)
        db.insert_rows("fact", fact)
    for appended in ([], [(600 + i, i % 9, i, 0.3, "b") for i in range(30)]):
        for db in (ours, rows):
            db.insert_rows("fact", appended)
        for sql in SHAPES + (FIRST_ENTRY,):
            assert repr(ours.execute(sql).rows) == repr(rows.execute(sql).rows)


def profiled_calls(run):
    """Calls by function name made while ``run`` runs: ``cProfile``
    counts the ``ndarray`` methods, which cannot be patched."""
    profile = cProfile.Profile()
    profile.runcall(run)
    calls = collections.Counter()
    for (_file, _line, name), row in pstats.Stats(profile).stats.items():
        calls[name] += row[1]
    return calls


def grouped_states(db):
    return [
        plan.columnar.state
        for prepared in db._prepared.values()
        for plan in prepared._plans[1].values()
        if getattr(plan.columnar, "state", None) is not None
    ]


def test_readers_racing_an_ingest_see_whole_prefixes():
    """Readers fold into one shared state while a writer appends: each
    answer must be some prefix of the inserts, counted once. Row ``i``
    has ``g = "ab"[i % 2]`` and ``q = i``, so ``k`` rows in group ``a``
    sum to ``k(k-1)`` and ``m`` in ``b`` to ``m**2``; a fold lost or
    applied twice breaks that."""
    db = Database("race")
    db.execute(FACT)
    statement, prepared = db._prepare(
        "SELECT g, COUNT(*), SUM(q) FROM fact GROUP BY g"
    )
    stop, broken = threading.Event(), []

    def read():
        while not stop.is_set():
            rows = db.execute_statement(statement, (), prepared=prepared).rows
            found = {g: (count, total) for g, count, total in rows}
            (k, a), (m, b) = found.get("a", (0, 0)), found.get("b", (0, 0))
            if a != k * (k - 1) or b != m * m or k - m not in (0, 1):
                broken.append(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for i in range(300):
            db.execute(
                "INSERT INTO fact VALUES (?, 0, ?, 0.5, ?)", (i, i, "ab"[i % 2])
            )
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert broken == []
    assert db.execute_statement(statement, (), prepared=prepared).rows == [
        ("a", 150, 150 * 149),
        ("b", 150, 150 * 150),
    ]
