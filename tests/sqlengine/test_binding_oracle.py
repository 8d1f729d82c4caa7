"""Name and ordinal verdicts agree: the engine, the gate and sqlite3.

A cross of select expressions x FROM clauses x tails (qualified,
unqualified, ambiguous and unknown names, a derived table, a CTE,
correlated and uncorrelated subqueries, ordinals in and out of range)
runs against the sales tables full and emptied. For every statement,
whether it has a bad name and whether it has a bad ordinal must read
the same from the engine (a ``BindError`` when the statement is
bound), from the analysis gate (``review_sql``'s codes) and from
sqlite3, in both data states: the verdict is the statement's, never
the data's (docs/sqlengine.md § Binding).
"""

import datetime
import itertools
import sqlite3

import pytest

from repro.analysis import review_sql
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.sqlengine import Database, SqlEngineError
from repro.sqlengine.binder import BindError

EXPRESSIONS = [
    "region", "users.region", "u.region", "c.region", "user_id",
    "orders.user_id", "o.amount", "amount", "n", "c.n", "nope",
    "users.nope", "x.region", "COUNT(*)", "SUM(amount)", "SUM(nope)",
    "COUNT(DISTINCT user_id)", "MAX(u.age)", "UPPER(region)", "age * 2",
    "CASE WHEN age > 40 THEN 'old' ELSE 'young' END",
    "(SELECT COUNT(*) FROM orders o2 WHERE o2.user_id = u.user_id)",
    "(SELECT COUNT(*) FROM orders o2 WHERE o2.user_id = users.user_id)",
    "(SELECT MAX(price) FROM products)",
    "(SELECT nope FROM products)",
    "(SELECT MAX(price) FROM products p WHERE p.category = region)",
    "EXISTS (SELECT 1 FROM orders o3 WHERE o3.user_id = u.user_id)",
    "1", "'x'", "segment || region",
]
FROMS = [
    "users",
    "users u",
    "orders o JOIN users u ON o.user_id = u.user_id",
    "orders JOIN users ON orders.user_id = users.user_id",
    "(SELECT region, COUNT(*) AS n FROM users GROUP BY region) c",
    "c JOIN users u ON c.user_id = u.user_id",
]
CTE = "WITH c AS (SELECT user_id, SUM(amount) AS n FROM orders GROUP BY user_id) "
TAILS = [
    "", "WHERE 1 = 0", "WHERE user_id > 0", "WHERE 1 = 0 AND nope = 1",
    "ORDER BY 1", "ORDER BY 2", "GROUP BY 1", "ORDER BY age LIMIT 5",
]

#: Where sqlite resolves a name and this engine does not, or the other
#: way round: each is pinned below, and the cross avoids its shape.
NAME_DIALECT_DIFFERENCES = {
    # ORDER BY a bare name: this engine matches any output column name,
    # as PostgreSQL does; sqlite only an explicit alias, then the FROM.
    "order-by-output-name": (
        "SELECT orders.user_id FROM orders "
        "JOIN users ON orders.user_id = users.user_id ORDER BY user_id",
        "ok",
        "name",
    ),
    # A select-list alias is visible to ORDER BY and GROUP BY only, as
    # in standard SQL; sqlite also resolves it in WHERE and HAVING.
    "alias-in-where": (
        "SELECT age AS years FROM users WHERE years > 30", "name", "ok"
    ),
    # An ON condition sees its own join's tables; sqlite also the ones
    # joined after it.
    "on-sees-later-join": (
        "SELECT 1 FROM orders o JOIN users u ON o.user_id = p.product_id "
        "JOIN products p ON p.product_id = o.product_id",
        "name",
        "ok",
    ),
}


def statements():
    for expr, source, tail in itertools.product(EXPRESSIONS, FROMS, TAILS):
        prefix = CTE if source.startswith("c JOIN") else ""
        yield f"{prefix}SELECT {expr} FROM {source} {tail}".strip()


def _emptied(full: Database) -> Database:
    empty = Database(name="emptied")
    for schema in full.catalog.tables():
        empty.create_table(schema.name, schema.columns)
    return empty


def _sqlite(db: Database, with_rows: bool) -> sqlite3.Connection:
    oracle = sqlite3.connect(":memory:")
    for schema in db.catalog.tables():
        columns = ", ".join(
            f"{c.name} {c.data_type.value}" for c in schema.columns
        )
        oracle.execute(f"CREATE TABLE {schema.name} ({columns})")
        if with_rows:
            rows = db.execute(f"SELECT * FROM {schema.name}").rows
            marks = ", ".join("?" * len(schema.columns))
            oracle.executemany(
                f"INSERT INTO {schema.name} VALUES ({marks})",
                [
                    tuple(
                        v.isoformat() if isinstance(v, datetime.date) else v
                        for v in row
                    )
                    for row in rows
                ],
            )
    return oracle


@pytest.fixture(scope="module")
def engines():
    full = build_sales_database(n_orders=40)
    empty = _emptied(full)
    return {
        "engine/full": full,
        "engine/empty": empty,
        "sqlite/full": _sqlite(full, True),
        "sqlite/empty": _sqlite(full, False),
    }


def engine_verdict(db: Database, sql: str) -> str:
    try:
        db.execute(sql)
    except BindError as error:
        return "ordinal" if error.code == "SQL018" else "name"
    except SqlEngineError:
        pass  # a value or type error: the names were fine
    return "ok"


def sqlite_verdict(oracle: sqlite3.Connection, sql: str) -> str:
    try:
        oracle.execute(sql).fetchall()
    except sqlite3.Error as error:
        message = str(error)
        if "out of range" in message:
            return "ordinal"
        if message.startswith(
            ("no such column", "ambiguous column name", "no such table")
        ):
            return "name"
    return "ok"


def gate_verdict(db: Database, sql: str) -> str:
    codes = {d.code for d in review_sql(sql, source=EngineSource(db))}
    if codes & {"SQL001", "SQL002", "SQL003"}:
        return "name"
    return "ordinal" if "SQL018" in codes else "ok"


def verdicts(engines, sql: str) -> dict[str, str]:
    found = {}
    for label, target in engines.items():
        if label.startswith("sqlite"):
            found[label] = sqlite_verdict(target, sql)
        else:
            found[label] = engine_verdict(target, sql)
            found[label.replace("engine", "gate")] = gate_verdict(target, sql)
    return found


def test_the_cross_agrees_on_names_and_ordinals(engines):
    cross = list(statements())
    assert len(cross) == 1440
    disagreements = {}
    seen = set()
    for sql in cross:
        found = verdicts(engines, sql)
        seen |= set(found.values())
        if len(set(found.values())) != 1:
            disagreements[sql] = found
    assert disagreements == {}
    assert seen == {"ok", "name", "ordinal"}


@pytest.mark.parametrize(
    "sql, verdict",
    [
        ("SELECT nope FROM users WHERE 1 = 0", "name"),
        ("SELECT SUM(nope) FROM users WHERE 1 = 0", "name"),
        ("SELECT u.nope FROM users u WHERE u.user_id < 0", "name"),
        ("DELETE FROM users WHERE 1 = 0 AND nope = 1", "name"),
        ("SELECT region FROM users WHERE 1 = 0 ORDER BY 2", "ordinal"),
        (
            "SELECT COUNT(DISTINCT user_id) FROM orders "
            "JOIN users ON orders.user_id = users.user_id WHERE region = 5",
            "name",
        ),
    ],
)
def test_each_probe_raises_when_bound(engines, sql, verdict):
    """What used to read as "no rows match" on an empty result."""
    assert set(verdicts(engines, sql).values()) == {verdict}


@pytest.mark.parametrize("name", sorted(NAME_DIALECT_DIFFERENCES))
def test_name_dialect_difference_is_as_documented(engines, name):
    sql, ours, theirs = NAME_DIALECT_DIFFERENCES[name]
    found = verdicts(engines, sql)
    assert {found[k] for k in found if not k.startswith("sqlite")} == {ours}
    assert {found[k] for k in found if k.startswith("sqlite")} == {theirs}
