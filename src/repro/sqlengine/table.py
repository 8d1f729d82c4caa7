"""Row storage for one table, with constraint enforcement.

Alongside the unique/PK hash maps that enforce constraints, a table
carries the *secondary* indexes created by ``CREATE INDEX`` — the
:class:`~repro.sqlengine.indexes.HashIndex` /
:class:`~repro.sqlengine.indexes.SortedIndex` structures the planner
targets for point and range access paths. All indexes are maintained
incrementally on INSERT and rebuilt on the bulk ``replace_rows`` path
that backs UPDATE/DELETE, so they can never lag the heap.

:meth:`Table.vector` is the column-major view the batch operators read:
a derived cache beside the heap, built on first use, extended after
inserts and dropped by ``replace_rows``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.sqlengine import columnar
from repro.sqlengine.catalog import TableSchema
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.indexes import SecondaryIndex, make_index
from repro.sqlengine.types import DataType


class Table:
    """In-memory heap of rows (tuples) conforming to a schema.

    Enforces NOT NULL, PRIMARY KEY and UNIQUE on mutation. Unique/PK
    checks are maintained with hash indexes so bulk loads stay linear.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = []
        self._unique_indexes: dict[int, dict[Any, int]] = {}
        #: CREATE INDEX structures, keyed by index name.
        self._secondary: dict[str, SecondaryIndex] = {}
        #: (column, kind) -> (heap rows covered, vector). The heap only
        #: grows between ``replace_rows`` calls, so an entry stays a
        #: valid prefix; it is replaced, never mutated, which lets
        #: ``clone`` share it with a transaction snapshot.
        self._vectors: dict[tuple[int, str], tuple[int, tuple]] = {}
        #: ``replace_rows`` calls: between two, the heap only grows.
        self.rewrites = 0
        for index, column in enumerate(schema.columns):
            if column.primary_key or column.unique:
                self._unique_indexes[index] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def snapshot(self) -> list[tuple[Any, ...]]:
        return list(self._rows)

    def rows_at(self, positions: Iterable[int]) -> list[tuple[Any, ...]]:
        """Materialize the rows at the given heap positions, in order."""
        heap = self._rows
        return [heap[position] for position in positions]

    def vector(self, column: int, kind: str) -> tuple:
        """Column ``column`` over the whole heap as a ``"num"`` (values,
        NULL mask) or ``"dict"`` (codes, distinct values) vector of
        :mod:`repro.sqlengine.columnar`, or ``Decline`` raised. Readers
        build and extend vectors under the shared read lock: a race
        builds equal ones and one assignment publishes either."""
        covered, vector = self._vectors.get((column, kind), (-1, ()))
        if vector is not None and covered < len(self._rows):
            fresh = [row[column] for row in self._rows[max(covered, 0) :]]
            real = self.schema.columns[column].data_type is DataType.REAL
            try:
                if kind == "num":
                    dtype = np.float64 if real else np.int64
                    vector = columnar.numeric(fresh, dtype, vector or None)
                else:
                    if real:  # NaN / -0.0 are not faithful dict keys
                        self.vector(column, "num")
                    vector = columnar.dictionary(fresh, vector or None)
            except columnar.Decline:
                vector = None  # and so is every longer heap
            self._vectors[(column, kind)] = (len(self._rows), vector)
        if vector is None:
            raise columnar.Decline
        return vector[:2]  # a dictionary keeps its value index to itself

    def insert(self, values: Iterable[Any]) -> None:
        row = self._validate_row(tuple(values))
        for column_index, index in self._unique_indexes.items():
            value = row[column_index]
            if value is None:
                continue
            if value in index:
                column = self.schema.columns[column_index]
                raise ExecutionError(
                    f"duplicate value {value!r} for unique column "
                    f"{self.schema.name}.{column.name}"
                )
        position = len(self._rows)
        self._rows.append(row)
        for column_index, index in self._unique_indexes.items():
            value = row[column_index]
            if value is not None:
                index[value] = position
        for secondary in self._secondary.values():
            secondary.add(position, row)

    def _validate_row(self, values: tuple[Any, ...]) -> tuple[Any, ...]:
        if len(values) != len(self.schema.columns):
            raise ExecutionError(
                f"table {self.schema.name!r} expects "
                f"{len(self.schema.columns)} values, got {len(values)}"
            )
        validated = []
        for column, value in zip(self.schema.columns, values):
            validated.append(column.validate(value))
        return tuple(validated)

    def replace_rows(self, rows: list[tuple[Any, ...]]) -> None:
        """Bulk replace after UPDATE/DELETE; rebuilds all indexes."""
        validated = [self._validate_row(row) for row in rows]
        new_indexes: dict[int, dict[Any, int]] = {
            column_index: {} for column_index in self._unique_indexes
        }
        for position, row in enumerate(validated):
            for column_index, index in new_indexes.items():
                value = row[column_index]
                if value is None:
                    continue
                if value in index:
                    column = self.schema.columns[column_index]
                    raise ExecutionError(
                        f"duplicate value {value!r} for unique column "
                        f"{self.schema.name}.{column.name}"
                    )
                index[value] = position
        self._rows = validated
        self._vectors = {}
        self.rewrites += 1
        self._unique_indexes = new_indexes
        for secondary in self._secondary.values():
            secondary.rebuild(self._rows)

    def clone(self) -> "Table":
        """Independent copy (transaction snapshots)."""
        twin = Table(self.schema)
        twin._rows = list(self._rows)
        twin._vectors = dict(self._vectors)
        twin._unique_indexes = {
            key: dict(value) for key, value in self._unique_indexes.items()
        }
        twin._secondary = {
            name: secondary.clone()
            for name, secondary in self._secondary.items()
        }
        return twin

    # -- secondary indexes (CREATE INDEX) -----------------------------

    def create_secondary_index(
        self,
        name: str,
        columns: Union[str, Sequence[str]],
        kind: str = "hash",
    ) -> None:
        """Create and backfill a secondary index over ``columns``."""
        if name in self._secondary:
            raise ExecutionError(f"index {name!r} already exists")
        if isinstance(columns, str):
            columns = (columns,)
        if not columns:
            raise ExecutionError("an index needs at least one column")
        positions = tuple(
            self.schema.column_index(column) for column in columns
        )
        if len(set(positions)) != len(positions):
            raise ExecutionError(
                f"index {name!r} lists a column more than once"
            )
        secondary = make_index(kind, name, positions)
        secondary.rebuild(self._rows)
        self._secondary[name] = secondary

    def drop_secondary_index(self, name: str) -> None:
        if name not in self._secondary:
            raise ExecutionError(f"no index named {name!r}")
        del self._secondary[name]

    def index_names(self) -> list[str]:
        return sorted(self._secondary)

    def get_index(self, name: str) -> SecondaryIndex:
        try:
            return self._secondary[name]
        except KeyError:
            raise ExecutionError(f"no index named {name!r}") from None
