"""Schema catalog: table and column metadata plus row storage handles.

The catalog also renders schema descriptions for prompts — the exact
text the Text-to-SQL models receive as context (schema linking operates
over this rendering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.sqlengine.errors import CatalogError, TypeCheckError
from repro.sqlengine.indexes import IndexInfo
from repro.sqlengine.types import DataType, coerce


@dataclass
class ColumnSchema:
    """Metadata for one column."""

    name: str
    data_type: DataType
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Any = None
    comment: str = ""

    def validate(self, value: Any) -> Any:
        """Coerce and constraint-check a value for this column."""
        coerced = coerce(value, self.data_type)
        if coerced is None and (self.not_null or self.primary_key):
            raise TypeCheckError(
                f"column {self.name!r} does not accept NULL"
            )
        return coerced


@dataclass
class TableSchema:
    """Metadata for one table."""

    name: str
    columns: list[ColumnSchema] = field(default_factory=list)
    comment: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(lowered)

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> ColumnSchema:
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        raise CatalogError(
            f"no column {name!r} in table {self.name!r}"
        )

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise CatalogError(
            f"no column {name!r} in table {self.name!r}"
        )

    def describe(self) -> str:
        """One-line schema rendering used in LLM prompts."""
        parts = []
        for column in self.columns:
            text = f"{column.name} {column.data_type.value}"
            if column.primary_key:
                text += " PRIMARY KEY"
            parts.append(text)
        return f"{self.name}({', '.join(parts)})"


class Catalog:
    """Case-insensitive registry of table schemas and index metadata.

    Tables own the index *structures*; the catalog records the index
    *metadata* (:class:`~repro.sqlengine.indexes.IndexInfo`) so the
    planner, ``DROP INDEX`` and introspection can reason about indexes
    without touching row storage.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._indexes: dict[str, IndexInfo] = {}

    def create_table(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = schema

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[key]
        self._indexes = {
            index_key: info
            for index_key, info in self._indexes.items()
            if info.table.lower() != key
        }

    def table(self, name: str) -> TableSchema:
        key = name.lower()
        schema = self._tables.get(key)
        if schema is None:
            raise CatalogError(f"no table named {name!r}")
        return schema

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return [schema.name for schema in self._tables.values()]

    def tables(self) -> Iterable[TableSchema]:
        return list(self._tables.values())

    def describe(self) -> str:
        """Multi-line schema rendering of the whole database."""
        return "\n".join(
            schema.describe() for schema in self._tables.values()
        )

    def clone(self) -> "Catalog":
        """Shallow copy (schemas are treated as immutable after DDL)."""
        twin = Catalog()
        twin._tables = dict(self._tables)
        twin._indexes = dict(self._indexes)
        return twin

    # -- secondary-index metadata -------------------------------------

    def register_index(self, info: IndexInfo) -> None:
        key = info.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {info.name!r} already exists")
        self._indexes[key] = info

    def drop_index(self, name: str) -> IndexInfo:
        key = name.lower()
        info = self._indexes.get(key)
        if info is None:
            raise CatalogError(f"no index named {name!r}")
        del self._indexes[key]
        return info

    def index(self, name: str) -> Optional[IndexInfo]:
        return self._indexes.get(name.lower())

    def indexes_for(self, table: str) -> list[IndexInfo]:
        """Index metadata for one table, in name order (deterministic
        planner choice)."""
        lowered = table.lower()
        return sorted(
            (
                info
                for info in self._indexes.values()
                if info.table.lower() == lowered
            ),
            key=lambda info: info.name.lower(),
        )

    def index_names(self) -> list[str]:
        return sorted(info.name for info in self._indexes.values())

    def describe_indexes(self) -> str:
        """Multi-line rendering of all indexes (not part of prompts)."""
        return "\n".join(
            self._indexes[key].describe() for key in sorted(self._indexes)
        )
