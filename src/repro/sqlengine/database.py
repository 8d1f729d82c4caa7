"""Public database facade: the object applications hold on to.

Statement execution is guarded by a readers-writer lock: any number of
SELECT/EXPLAIN statements run concurrently, while DML/DDL waits for
exclusive access. The lock is write-preferring, so a steady stream of
readers cannot starve a writer.
"""

from __future__ import annotations

import functools
import operator
import threading
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.cache.keys import instance_token, sql_key
from repro.cache.manager import get_cache_manager
from repro.sqlengine import nodes
from repro.sqlengine.catalog import Catalog, ColumnSchema, TableSchema
from repro.sqlengine.errors import CatalogError
from repro.sqlengine.executor import Executor, Relation
from repro.sqlengine.locking import ReadWriteLock
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.table import Table
from repro.sqlengine.types import DataType, infer_type


@dataclass
class ResultSet:
    """Columns and rows produced by :meth:`Database.execute`.

    ``rowcount`` is meaningful for DML (-1 for queries).
    """

    columns: list[str]
    rows: list[tuple[Any, ...]]
    rowcount: int = -1

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """First column of the first row, or None when empty."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.lower() == lowered:
                return [row[index] for row in self.rows]
        raise KeyError(name)

    def format_table(self, max_rows: int = 20) -> str:
        """Plain-text grid rendering (used by chat transcripts)."""
        shown = self.rows[:max_rows]
        cells = [[str(c) for c in self.columns]]
        for row in shown:
            cells.append(
                ["NULL" if v is None else str(v) for v in row]
            )
        widths = [
            max(len(line[i]) for line in cells)
            for i in range(len(self.columns))
        ] if self.columns else []
        lines = []
        for line_index, line in enumerate(cells):
            rendered = " | ".join(
                value.ljust(widths[i]) for i, value in enumerate(line)
            )
            lines.append(rendered)
            if line_index == 0:
                lines.append("-+-".join("-" * w for w in widths))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


#: Statements after which every plan is stale (so is ROLLBACK).
_SCHEMA_CHANGES = (
    nodes.CreateTable, nodes.DropTable, nodes.CreateView, nodes.DropView,
    nodes.CreateIndex, nodes.DropIndex,
)


class _Prepared:
    """A prepared SELECT: its parse, its canonical SQL, the plans of its
    cores (with their grouped state) and its read set
    (docs/sqlengine.md § Prepared statements)."""

    __slots__ = ("statement", "canonical", "_plans", "_reads")

    def __init__(self, statement: nodes.Select) -> None:
        self.statement = statement
        self.canonical = statement.to_sql()
        self._plans: tuple = (None, {})
        #: (schema epoch, :meth:`Database.version_reader` of the read set).
        self._reads: tuple = (None, None)

    def plans(self, db: "Database") -> dict:
        """The plans built under ``db``'s schema epoch, ``optimize`` and
        ``enable_hash_join`` (every plan input); a change starts afresh."""
        stamp = (db.schema_epoch, db.optimize, db.enable_hash_join)
        built, plans = self._plans
        if built != stamp:
            plans = {}
            self._plans = (stamp, plans)
        return plans


class Database:
    """An in-memory SQL database.

    >>> db = Database("demo")
    >>> _ = db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'ada')")
    >>> db.execute("SELECT name FROM t").scalar()
    'ada'
    """

    def __init__(
        self,
        name: str = "main",
        enable_hash_join: bool = True,
        optimize: bool = True,
    ) -> None:
        self.name = name
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self.enable_hash_join = enable_hash_join
        #: Planner rules on/off. ``optimize=False`` runs every SELECT
        #: naively (full scans, no pushdown) — the reference the
        #: planner equivalence tests compare against.
        self.optimize = optimize
        self._views: dict[str, Any] = {}
        #: Transaction snapshot stack: (catalog, tables, views) triples.
        self._snapshots: list[tuple] = []
        #: Per-table data versions, by lower-cased name, bumped by every
        #: write to the table; a cached read's key carries its read set's.
        self._versions: defaultdict[str, int] = defaultdict(int)
        #: Bumped by table, view and index DDL, ROLLBACK, ``create_table``
        #: and ``create_index``, never by data changes. Every plan input
        #: is schema: prepared plans live until it moves, and it is part
        #: of every SQL cache key too (ROLLBACK restores old data without
        #: moving any table's version).
        self.schema_epoch = 0
        self._cache_token = instance_token()
        #: Guards statement execution: concurrent SELECTs share the
        #: read side; DML/DDL takes the write side exclusively.
        self._rwlock = ReadWriteLock()
        #: Raw SQL text -> :class:`_Prepared`, oldest first. A hit is
        #: one lock-free dict read; a miss inserts under ``_memo_lock``.
        self._prepared: OrderedDict[str, _Prepared] = OrderedDict()
        self._memo_lock = threading.Lock()

    _PREPARED_CAPACITY = 512

    # -- execution -------------------------------------------------------

    def execute(
        self, sql: str, parameters: Sequence[Any] = ()
    ) -> ResultSet:
        """Parse and execute one SQL statement.

        A SELECT is prepared once per text (:meth:`parse`); the SQL cache
        tier serves its result keyed on this database, its schema epoch,
        the data versions of the tables the statement reads and the
        canonical SQL — so two spellings share an entry, and a write
        retires exactly the reads of the table it wrote.
        """
        statement, prepared = self._prepare(sql)
        params = tuple(parameters)

        def run() -> ResultSet:
            return self.execute_statement(statement, params, prepared=prepared)

        if prepared is None:
            return run()
        epoch, read = prepared._reads
        if epoch != self.schema_epoch:
            prepared._reads = epoch, read = self.version_reader(
                lambda: nodes.table_names(statement)
            )
        key = sql_key(
            self._cache_token,
            self.name,
            read(),
            prepared.canonical,
            params,
            schema_epoch=epoch,
        )
        try:
            hash(key)
        except TypeError:
            return run()  # unhashable parameter values: no caching
        frozen = get_cache_manager().cached(
            "sql", key, lambda: _freeze_result(run())
        )
        return _thaw_result(frozen)

    def version_reader(
        self, names: Callable[[], Iterable[str]]
    ) -> tuple[int, Callable[[], Any]]:
        """The schema epoch and a call reading the data versions of the
        base tables among ``names()`` (a view's definition's, a CTE's
        shadowed table: over-approximating costs a recompute), read under
        the read lock, as DDL bumps the epoch before changing the catalog."""
        with self._rwlock.reading():
            pending, seen = [name.lower() for name in names()], set()
            while pending:
                name = pending.pop()
                if name in self._views and name not in seen:
                    pending += map(str.lower, nodes.table_names(self._views[name]))
                seen.add(name)
            tables = sorted(seen.intersection(self._tables))
            epoch = self.schema_epoch
        if not tables:
            return epoch, tuple
        read = operator.itemgetter(*tables)
        return epoch, functools.partial(read, self._versions)

    def parse(self, sql: str) -> nodes.Statement:
        """``parse_sql(sql)``; a SELECT comes from the memo that execution
        reads, so checking a statement and then running it parses once."""
        return self._prepare(sql)[0]

    def _prepare(
        self, sql: str
    ) -> tuple[nodes.Statement, Optional[_Prepared]]:
        # staticcheck: allow LCK003 - double-checked fast path; the
        # miss branch re-reads under the lock (setdefault) before writing.
        prepared = self._prepared.get(sql)
        if prepared is not None:
            return prepared.statement, prepared
        statement = parse_sql(sql)
        if not isinstance(statement, nodes.Select):
            return statement, None
        fresh = _Prepared(statement)
        with self._memo_lock:
            prepared = self._prepared.setdefault(sql, fresh)
            if len(self._prepared) > self._PREPARED_CAPACITY:
                self._prepared.popitem(last=False)
        return prepared.statement, prepared

    def execute_statement(
        self,
        statement: nodes.Statement,
        parameters: Sequence[Any] = (),
        prepared: Optional[_Prepared] = None,
    ) -> ResultSet:
        """Execute a parsed statement; ``prepared`` is the memo entry a
        SELECT came from, whose plans it reuses."""
        if isinstance(statement, (nodes.Select, nodes.Explain)):
            with self._rwlock.reading():  # which holds the schema epoch
                plans = prepared.plans(self) if prepared else None
                return self._run_statement(statement, parameters, plans)
        with self._rwlock.writing():
            # DML retires the reads of the table it writes; DDL and
            # ROLLBACK (which restores old data) every read. Bumping
            # before execution errs on the side of extra invalidation:
            # a failed write costs a recompute, never a stale read.
            if isinstance(statement, (nodes.Insert, nodes.Update, nodes.Delete)):
                self._versions[statement.table.lower()] += 1
            if isinstance(statement, _SCHEMA_CHANGES) or (
                isinstance(statement, nodes.TransactionStatement)
                and statement.action == "ROLLBACK"
            ):
                self.schema_epoch += 1
            if isinstance(statement, nodes.TransactionStatement):
                return self._execute_transaction(statement.action)
            return self._run_statement(statement, parameters)

    def _run_statement(
        self,
        statement: nodes.Statement,
        parameters: Sequence[Any],
        plans: Optional[dict] = None,
    ) -> ResultSet:
        executor = Executor(
            self.catalog,
            self._tables,
            parameters,
            enable_hash_join=self.enable_hash_join,
            views=self._views,
            optimize=self.optimize,
            plans=plans,
        )
        return _to_result(executor.execute(statement))

    # -- transactions ------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return bool(self._snapshots)

    def _execute_transaction(self, action: str) -> ResultSet:
        from repro.sqlengine.errors import ExecutionError

        if action == "BEGIN":
            snapshot_tables = {
                name: table.clone() for name, table in self._tables.items()
            }
            self._snapshots.append(
                (self.catalog.clone(), snapshot_tables, dict(self._views))
            )
        elif action == "COMMIT":
            if not self._snapshots:
                raise ExecutionError("COMMIT without an active transaction")
            self._snapshots.pop()
        elif action == "ROLLBACK":
            if not self._snapshots:
                raise ExecutionError(
                    "ROLLBACK without an active transaction"
                )
            self.catalog, self._tables, self._views = self._snapshots.pop()
        return ResultSet(columns=["rowcount"], rows=[(0,)], rowcount=0)

    # -- indexes -------------------------------------------------------------

    def create_index(
        self,
        name: str,
        table: str,
        columns: str | Sequence[str],
        kind: str = "hash",
    ) -> None:
        """Create a secondary index from Python (no SQL round trip)."""
        from repro.sqlengine.indexes import IndexInfo

        if isinstance(columns, str):
            columns = (columns,)
        with self._rwlock.writing():
            storage = self._storage(table)
            storage.create_secondary_index(name, columns, kind)
            self.catalog.register_index(
                IndexInfo(
                    name=name,
                    table=table,
                    columns=tuple(columns),
                    kind=kind,
                )
            )
            self.schema_epoch += 1

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def index_names(self) -> list[str]:
        names: list[str] = []
        for table in self._tables.values():
            names.extend(table.index_names())
        return sorted(names)

    def execute_script(self, sql: str) -> list[ResultSet]:
        """Execute a ``;``-separated script, returning each result."""
        results = []
        for statement_text in split_statements(sql):
            results.append(self.execute(statement_text))
        return results

    # -- programmatic schema / data helpers -------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, DataType | str]] | Sequence[ColumnSchema],
        primary_key: Optional[str] = None,
        comment: str = "",
    ) -> TableSchema:
        """Create a table from Python metadata (no SQL round trip)."""
        schemas: list[ColumnSchema] = []
        for column in columns:
            if isinstance(column, ColumnSchema):
                schemas.append(column)
                continue
            column_name, data_type = column
            if isinstance(data_type, str):
                data_type = DataType.from_name(data_type)
            schemas.append(
                ColumnSchema(
                    name=column_name,
                    data_type=data_type,
                    primary_key=(column_name == primary_key),
                )
            )
        schema = TableSchema(name, schemas, comment=comment)
        with self._rwlock.writing():
            self.schema_epoch += 1
            self.catalog.create_table(schema)
            self._tables[name.lower()] = Table(schema)
        return schema

    def insert_rows(
        self, table: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Bulk insert positional rows."""
        with self._rwlock.writing():
            storage = self._storage(table)
            self._versions[table.lower()] += 1
            count = 0
            for row in rows:
                storage.insert(row)
                count += 1
        return count

    def insert_dicts(
        self, table: str, records: Iterable[dict[str, Any]]
    ) -> int:
        """Bulk insert mapping rows; missing columns get their default."""
        with self._rwlock.writing():
            storage = self._storage(table)
            self._versions[table.lower()] += 1
            schema = storage.schema
            count = 0
            for record in records:
                row = [
                    record.get(column.name, column.default)
                    for column in schema.columns
                ]
                storage.insert(row)
                count += 1
        return count

    def load_table(
        self,
        name: str,
        records: Sequence[dict[str, Any]],
        primary_key: Optional[str] = None,
    ) -> TableSchema:
        """Infer a schema from records, create the table, and load it."""
        if not records:
            raise CatalogError(
                f"cannot infer a schema for {name!r} from zero records"
            )
        column_types: dict[str, DataType] = {}
        for record in records:
            for key, value in record.items():
                if value is None:
                    column_types.setdefault(key, DataType.TEXT)
                    continue
                inferred = infer_type(value)
                current = column_types.get(key)
                if current is None or current is DataType.TEXT:
                    column_types[key] = inferred
                elif current is DataType.INTEGER and inferred is DataType.REAL:
                    column_types[key] = DataType.REAL
        schema = self.create_table(
            name, list(column_types.items()), primary_key=primary_key
        )
        self.insert_dicts(name, records)
        return schema

    def table_rowcount(self, name: str) -> int:
        return len(self._storage(name))

    def describe(self) -> str:
        return self.catalog.describe()

    def _storage(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"no table named {name!r}")
        return table


def split_statements(sql: str) -> list[str]:
    """Split a script on top-level semicolons (string-literal aware)."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if in_string:
            current.append(ch)
            if ch == "'":
                if i + 1 < n and sql[i + 1] == "'":
                    current.append("'")
                    i += 2
                    continue
                in_string = False
            i += 1
            continue
        if ch == "'":
            in_string = True
            current.append(ch)
            i += 1
            continue
        if ch == ";":
            text = "".join(current).strip()
            if text:
                statements.append(text)
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    text = "".join(current).strip()
    if text:
        statements.append(text)
    return statements


def _freeze_result(result: ResultSet) -> tuple:
    """An immutable rendering safe to share across cache hits."""
    return (tuple(result.columns), tuple(result.rows), result.rowcount)


def _thaw_result(frozen: tuple) -> ResultSet:
    """A fresh :class:`ResultSet` per hit — callers may mutate theirs."""
    columns, rows, rowcount = frozen
    return ResultSet(
        columns=list(columns), rows=list(rows), rowcount=rowcount
    )


def _to_result(relation: Relation) -> ResultSet:
    if relation.columns == [(None, "rowcount")] and len(relation.rows) == 1:
        return ResultSet(
            columns=["rowcount"],
            rows=list(relation.rows),
            rowcount=relation.rows[0][0],
        )
    return ResultSet(columns=relation.column_names, rows=list(relation.rows))
