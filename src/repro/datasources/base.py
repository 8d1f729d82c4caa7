"""The uniform data source interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.sqlengine import ResultSet


class DataSourceError(Exception):
    """Raised when a connector cannot satisfy a request."""


def quote_identifier(name: str) -> str:
    """``name`` as a double-quoted SQL identifier, so a keyword such as
    ``order`` or a name with a space reads as one table or column."""
    return f'"{name}"'


@dataclass
class TableInfo:
    """Lightweight table description shown to users and LLM prompts."""

    name: str
    columns: list[str]
    column_types: list[str]
    row_count: int
    comment: str = ""

    def signature(self) -> str:
        """``name(column TYPE, ...)``: what an ingest does not change."""
        cols = ", ".join(
            f"{name} {ctype}"
            for name, ctype in zip(self.columns, self.column_types)
        )
        return f"{self.name}({cols})"

    def describe(self) -> str:
        return f"{self.signature()} [{self.row_count} rows]"


class DataSource(abc.ABC):
    """A queryable collection of tables.

    Every connector supports the same four operations so the application
    layer (and the agents) never special-case the backing store.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def tables(self) -> list[TableInfo]:
        """List the tables this source exposes."""

    @abc.abstractmethod
    def query(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        """Run a SQL query against the source."""

    def describe_schema(self) -> str:
        """Schema text with row counts, for agents and schema cards."""
        return "\n".join(info.describe() for info in self.tables())

    def prompt_context(
        self, max_values_per_column: int = 20
    ) -> tuple[str, ...]:
        """What a Text-to-SQL prompt says about this source: the table
        signatures, then one ``table.column: v1, v2`` line per TEXT
        column that has values (sample values enable database-content
        linking). Row counts stay out: no model reads them, and a
        prompt that changed with every ingest would miss the inference
        cache and the models' prefix stores after each one."""
        lines = ["\n".join(info.signature() for info in self.tables())]
        for info in self.tables():
            for column, ctype in zip(info.columns, info.column_types):
                if ctype != "TEXT":
                    continue
                quoted = quote_identifier(column)
                values = self.query(
                    f"SELECT DISTINCT {quoted} FROM "
                    f"{quote_identifier(info.name)} WHERE {quoted} IS NOT "
                    f"NULL LIMIT {max_values_per_column}"
                ).column(column)
                if values:
                    rendered = ", ".join(str(v) for v in values)
                    lines.append(f"{info.name}.{column}: {rendered}")
        return tuple(lines)

    def table_names(self) -> list[str]:
        return [info.name for info in self.tables()]

    def has_table(self, name: str) -> bool:
        lowered = name.lower()
        return any(info.name.lower() == lowered for info in self.tables())

    def sample_rows(self, table: str, limit: int = 5) -> ResultSet:
        """A few example rows, used for few-shot prompt context."""
        if not self.has_table(table):
            raise DataSourceError(
                f"source {self.name!r} has no table {table!r}"
            )
        return self.query(
            f"SELECT * FROM {quote_identifier(table)} LIMIT {int(limit)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
