"""Per-table data versions: a write retires the reads of its table only.

Each table has its own data version, bumped by INSERT, UPDATE, DELETE
and the programmatic inserts. A cached SELECT is keyed on the versions
of its read set — every base table the statement names anywhere, with a
view standing for its definition's tables — and the prompt context and
the gate verdict on the tables whose values the prompt samples (those
with a TEXT column; ``orders`` has none). DDL and ROLLBACK move the
schema epoch, which retires everything (``test_index_epoch.py``).
"""

import pytest

from repro.analysis import gate
from repro.datasets import build_sales_database
from repro.datasources import EngineSource
from repro.datasources.base import DataSource

INGEST = "INSERT INTO orders VALUES (9001, 1, 1, 2, 50.0, '2023-07-01')"
NEW_USER = "INSERT INTO users VALUES (9001, 'zed', 'retail', 'atlantis', 30)"
USERS_SQL = "SELECT region, COUNT(*) FROM users GROUP BY region"
PRODUCTS_SQL = "SELECT category, AVG(price) FROM products GROUP BY category"
ORDERS_SQL = "SELECT COUNT(*) FROM orders"


class _Client:
    """A model that always drafts the same (valid) repair."""

    def generate(self, model, prompt, task=None):
        return "SELECT COUNT(*) FROM users"


@pytest.fixture
def source():
    return EngineSource(build_sales_database(n_orders=40))


@pytest.fixture
def computed(monkeypatch):
    """Counts the prompt contexts and gate verdicts actually computed."""
    counts = {"prompt": 0, "gate": 0}
    prompt_context = DataSource.prompt_context
    gate_uncached = gate._gate_uncached

    def prompt(self, *args):
        counts["prompt"] += 1
        return prompt_context(self, *args)

    def verdict(*args):
        counts["gate"] += 1
        return gate_uncached(*args)

    monkeypatch.setattr(DataSource, "prompt_context", prompt)
    monkeypatch.setattr(gate, "_gate_uncached", verdict)
    return counts


def sql_misses(cache):
    return cache.stats()["sql"]["misses"]


def warm(source):
    """Every kind of cached read once: results, prompt context, gate
    (a verdict whose repair embeds the prompt context)."""
    db = source.database
    reads = [db.execute(sql).rows for sql in (USERS_SQL, PRODUCTS_SQL)]
    source.prompt_context()
    gate.gate_sql(_Client(), "m", source, "how many?", "SELECT nope FROM users")
    return reads


class TestAnOrdersIngest:
    def test_keeps_other_tables_prompt_and_gate_cached(
        self, enabled_cache, source, computed
    ):
        before = warm(source)
        misses = sql_misses(enabled_cache)
        source.database.execute("BEGIN")
        source.database.execute(INGEST)
        source.database.execute("COMMIT")
        assert warm(source) == before
        assert sql_misses(enabled_cache) == misses
        assert computed == {"prompt": 1, "gate": 1}

    def test_retires_its_own_reads(self, enabled_cache, source):
        db = source.database
        assert db.execute(ORDERS_SQL).scalar() == 40
        db.insert_rows("orders", [(9002, 1, 1, 1, 5.0, "2023-07-02")])
        assert db.execute(ORDERS_SQL).scalar() == 41
        db.execute(INGEST)
        assert db.execute(ORDERS_SQL).scalar() == 42


class TestAUsersWrite:
    @pytest.mark.parametrize(
        "write",
        [
            NEW_USER,
            "UPDATE users SET region = 'atlantis' WHERE user_id = 1",
            "DELETE FROM users WHERE user_id = 1",
        ],
    )
    def test_retires_users_reads_prompt_and_gate(
        self, enabled_cache, source, computed, write
    ):
        before = warm(source)
        source.database.execute(write)
        after = warm(source)
        assert after[0] != before[0]  # the users result was recomputed
        assert after[1] == before[1]
        assert computed == {"prompt": 2, "gate": 2}

    def test_insert_dicts_retires_them_too(self, source, computed):
        warm(source)
        source.database.insert_dicts(
            "users", [{"user_id": 9003, "user_name": "amy", "region": "mars"}]
        )
        warm(source)
        assert computed == {"prompt": 2, "gate": 2}
        assert "mars" in "\n".join(source.prompt_context())


class TestReadSets:
    """Every base table a statement names is in its read set."""

    @pytest.mark.parametrize(
        "sql, write",
        [
            # A subquery, a compound arm, a derived table.
            (
                "SELECT COUNT(*) FROM orders WHERE user_id IN "
                "(SELECT user_id FROM users WHERE region = 'atlantis')",
                "UPDATE users SET region = 'atlantis' WHERE user_id < 5",
            ),
            (
                "SELECT region FROM users UNION SELECT category FROM products",
                "INSERT INTO products VALUES (9001, 'orb', 'atlantis', 1.0)",
            ),
            (
                "SELECT COUNT(*) FROM (SELECT * FROM orders) AS o",
                INGEST,
            ),
            # A CTE named like a base table: its body reads that table.
            (
                "WITH orders AS (SELECT * FROM orders WHERE amount > 0) "
                "SELECT COUNT(*) FROM orders",
                INGEST,
            ),
            # A CTE shadowing ``users`` over ``orders``.
            (
                "WITH users AS (SELECT * FROM orders) "
                "SELECT COUNT(*) FROM users",
                INGEST,
            ),
        ],
    )
    def test_a_write_to_any_of_them_retires_the_read(self, source, sql, write):
        db = source.database
        before = db.execute(sql).rows
        db.execute(write)
        after = db.execute(sql).rows
        assert after != before
        assert after == db.execute_statement(db.parse(sql)).rows

    def test_a_view_stands_for_its_tables(self, enabled_cache, source):
        db = source.database
        db.execute("CREATE VIEW big AS SELECT * FROM orders WHERE amount > 0")
        sql = "SELECT COUNT(*) FROM big"
        count = db.execute(sql).scalar()
        misses = sql_misses(enabled_cache)
        db.execute(NEW_USER)
        assert db.execute(sql).scalar() == count
        assert sql_misses(enabled_cache) == misses  # users is not read
        db.execute(INGEST)
        assert db.execute(sql).scalar() == count + 1

    def test_a_view_over_a_view(self, source):
        db = source.database
        db.execute("CREATE VIEW big AS SELECT * FROM orders WHERE amount > 0")
        db.execute("CREATE VIEW bigger AS SELECT * FROM big")
        sql = "SELECT COUNT(*) FROM bigger"
        count = db.execute(sql).scalar()
        db.execute(INGEST)
        assert db.execute(sql).scalar() == count + 1

    def test_begin_and_commit_retire_nothing(self, enabled_cache, source):
        db = source.database
        db.execute(USERS_SQL)
        misses = sql_misses(enabled_cache)
        db.execute("BEGIN")
        db.execute(USERS_SQL)
        db.execute("COMMIT")
        db.execute(USERS_SQL)
        assert sql_misses(enabled_cache) == misses
