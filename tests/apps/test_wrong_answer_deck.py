"""The wrong-answer deck: questions text2sql answers confidently wrong.

Each row asks ``DBGPT.boot()``'s ``text2sql`` one question over the
sales database (400 orders in 2023 plus 120 in 2024, so a dropped year
changes the answer), runs the generated SQL and a hand-written gold
SQL on ``repro.sqlengine`` and on sqlite3, and compares the answers
engine by engine. Every row is a strict ``xfail`` naming what is wrong
until the parser fix that answers it lands; a row never leaves the
deck. The gold SQL itself must give one answer on both engines.
"""

import datetime
import sqlite3

import pytest

from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource

DECK = [
    ("how many orders were placed by user 17",
     "SELECT COUNT(*) FROM orders WHERE user_id = 17",
     "id literal dropped"),
    ("how many orders did user 5 place in 2024",
     "SELECT COUNT(*) FROM orders WHERE user_id = 5 "
     "AND order_date >= '2024-01-01' AND order_date < '2025-01-01'",
     "id and year dropped"),
    ("total order amount in May 2023",
     "SELECT SUM(amount) FROM orders "
     "WHERE order_date >= '2023-05-01' AND order_date < '2023-06-01'",
     "date range dropped"),
    ("average amount of orders in category Books",
     "SELECT AVG(orders.amount) FROM orders JOIN products "
     "ON orders.product_id = products.product_id "
     "WHERE products.category = 'Books'",
     "a value not in the data is dropped silently"),
    ("top 3 users by total amount",
     "SELECT users.user_name FROM users JOIN orders "
     "ON users.user_id = orders.user_id "
     "GROUP BY users.user_id, users.user_name "
     "ORDER BY SUM(orders.amount) DESC LIMIT 3",
     "no SUM / GROUP BY"),
    ("orders between 100 and 200",
     "SELECT order_id FROM orders WHERE amount BETWEEN 100 AND 200",
     "wrong measure column"),
    ("how many orders per month in 2023",
     "SELECT STRFTIME('%Y-%m', order_date), COUNT(*) FROM orders "
     "WHERE order_date >= '2023-01-01' AND order_date < '2024-01-01' "
     "GROUP BY STRFTIME('%Y-%m', order_date)",
     "year dropped"),
    ("which region has the most users",
     "SELECT region FROM users GROUP BY region "
     "ORDER BY COUNT(*) DESC LIMIT 1",
     "no COUNT / GROUP BY / ORDER BY ... LIMIT 1"),
    ("orders not in category Electronics",
     "SELECT orders.order_id FROM orders JOIN products "
     "ON orders.product_id = products.product_id "
     "WHERE products.category <> 'Electronics'",
     "negation inverted"),
    ("how many orders were placed after 2024-03-01",
     "SELECT COUNT(*) FROM orders WHERE order_date > '2024-03-01'",
     "date literal dropped"),
    ("how many orders were placed in 2023",
     "SELECT COUNT(*) FROM orders "
     "WHERE order_date >= '2023-01-01' AND order_date < '2024-01-01'",
     "year dropped"),
    ("average order amount for user 12",
     "SELECT AVG(amount) FROM orders WHERE user_id = 12",
     "id dropped"),
    ("how many distinct users placed orders",
     "SELECT COUNT(DISTINCT user_id) FROM orders",
     "COUNT(DISTINCT ...) unsupported: the app answers 422"),
]


def _value(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _answer(rows) -> list:
    return sorted((tuple(_value(v) for v in row) for row in rows), key=repr)


@pytest.fixture(scope="module")
def deck():
    db = build_sales_database(n_orders=400)
    later = build_sales_database(n_orders=120, year=2024)
    db.insert_rows(
        "orders",
        [(order_id + 10_000, *rest)
         for order_id, *rest in later.execute("SELECT * FROM orders").rows],
    )
    oracle = sqlite3.connect(":memory:")
    for schema in db.catalog.tables():
        columns = ", ".join(
            f"{c.name} {c.data_type.value}" for c in schema.columns
        )
        oracle.execute(f"CREATE TABLE {schema.name} ({columns})")
        rows = [
            tuple(_value(v) for v in row)
            for row in db.execute(f"SELECT * FROM {schema.name}").rows
        ]
        marks = ", ".join("?" * len(schema.columns))
        oracle.executemany(
            f"INSERT INTO {schema.name} VALUES ({marks})", rows
        )
    dbgpt = DBGPT.boot()
    dbgpt.register_source(EngineSource(db), default=True)
    yield dbgpt, db, oracle
    dbgpt.shutdown()


def _answers(db, oracle, sql) -> tuple[list, list]:
    return _answer(db.execute(sql).rows), _answer(oracle.execute(sql).fetchall())


QUESTIONS = [question for question, _gold, _wrong in DECK]


@pytest.mark.parametrize("question, gold, _wrong", DECK, ids=QUESTIONS)
def test_gold_gives_one_answer_on_both_engines(deck, question, gold, _wrong):
    _dbgpt, db, oracle = deck
    ours, theirs = _answers(db, oracle, gold)
    assert ours == theirs


@pytest.mark.parametrize(
    "question, gold",
    [
        pytest.param(question, gold, marks=pytest.mark.xfail(strict=True, reason=wrong))
        for question, gold, wrong in DECK
    ],
    ids=QUESTIONS,
)
def test_text2sql_answers_the_question(deck, question, gold):
    dbgpt, db, oracle = deck
    response = dbgpt.chat("text2sql", question)
    assert response.ok, response.text
    assert _answers(db, oracle, response.payload) == _answers(db, oracle, gold)
