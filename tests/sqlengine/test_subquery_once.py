"""An uncorrelated subquery runs once per statement execution.

A subquery that reads nothing of the outer row has one answer for every
outer row, so :meth:`Evaluator._subquery` keeps the first run's rows.
A correlated one still runs per outer row. Both are checked against
stdlib ``sqlite3`` as a multiset, and the inner runs are counted.
"""

import sqlite3

import pytest

from repro.sqlengine import Database, parse_sql
from repro.sqlengine.executor import Executor

SCHEMA = (
    "CREATE TABLE users (user_id INTEGER PRIMARY KEY, region TEXT)",
    "CREATE TABLE orders (order_id INTEGER PRIMARY KEY, user_id INTEGER, "
    "amount REAL)",
)
USERS = [(i, ("East", "West", None)[i % 3]) for i in range(12)]
ORDERS = [(i, i % 14, float(i * 7 % 50)) for i in range(60)]

UNCORRELATED = [
    "SELECT COUNT(*) FROM orders WHERE amount > (SELECT AVG(amount) FROM orders)",
    "SELECT order_id FROM orders WHERE user_id IN "
    "(SELECT user_id FROM users WHERE region = 'East')",
    "SELECT order_id FROM orders WHERE user_id NOT IN "
    "(SELECT user_id FROM users WHERE region = 'West')",
    "SELECT order_id FROM orders WHERE EXISTS "
    "(SELECT 1 FROM users WHERE region IS NULL)",
    "SELECT order_id, (SELECT MAX(user_id) FROM users) FROM orders",
    # The middle subquery is uncorrelated; its own subquery is too.
    "SELECT order_id FROM orders WHERE user_id IN (SELECT user_id FROM "
    "users WHERE user_id > (SELECT MIN(user_id) FROM orders))",
]
CORRELATED = [
    "SELECT user_id FROM users u WHERE EXISTS "
    "(SELECT 1 FROM orders o WHERE o.user_id = u.user_id AND o.amount > 30)",
    "SELECT user_id, (SELECT COUNT(*) FROM orders o "
    "WHERE o.user_id = u.user_id) FROM users u",
    # Correlated through a nested subquery only.
    "SELECT user_id FROM users u WHERE 0 < (SELECT COUNT(*) FROM orders o "
    "WHERE o.amount > (SELECT MIN(amount) FROM orders p "
    "WHERE p.user_id = u.user_id))",
]


@pytest.fixture(scope="module")
def engines():
    db = Database("subq")
    oracle = sqlite3.connect(":memory:")
    for statement in SCHEMA:
        db.execute(statement)
        oracle.execute(statement)
    db.insert_rows("users", USERS)
    db.insert_rows("orders", ORDERS)
    oracle.executemany("INSERT INTO users VALUES (?, ?)", USERS)
    oracle.executemany("INSERT INTO orders VALUES (?, ?, ?)", ORDERS)
    yield db, oracle
    oracle.close()


@pytest.fixture
def subquery_runs(monkeypatch):
    runs = []
    run = Executor._run_subquery

    def counted(self, select, outer):
        runs.append(select)
        return run(self, select, outer)

    monkeypatch.setattr(Executor, "_run_subquery", counted)
    return runs


def run(db, sql):
    """One execution, past the result cache."""
    return db.execute_statement(parse_sql(sql)).rows


def canonical(rows):
    return sorted(rows, key=repr)


@pytest.mark.parametrize("sql", UNCORRELATED)
def test_uncorrelated_runs_once(engines, subquery_runs, sql):
    db, oracle = engines
    rows = run(db, sql)
    assert canonical(rows) == canonical(oracle.execute(sql).fetchall())
    # One run per subquery node in the statement, whatever the row count.
    assert len(subquery_runs) == len({id(s) for s in subquery_runs})


@pytest.mark.parametrize("sql", CORRELATED)
def test_correlated_runs_per_row(engines, subquery_runs, sql):
    db, oracle = engines
    rows = run(db, sql)
    assert canonical(rows) == canonical(oracle.execute(sql).fetchall())
    outer_rows = len(USERS)
    assert len(subquery_runs) >= outer_rows


def test_each_execution_runs_it_again(engines, subquery_runs):
    db, _oracle = engines
    sql = UNCORRELATED[0]
    run(db, sql)
    run(db, sql)
    assert len(subquery_runs) == 2
