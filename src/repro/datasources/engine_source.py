"""Connector for the in-memory SQL engine."""

from __future__ import annotations

from typing import Any, Sequence

from repro.cache.manager import get_cache_manager
from repro.datasources.base import DataSource, DataSourceError, TableInfo
from repro.sqlengine import Database, ResultSet, SqlEngineError


class EngineSource(DataSource):
    """Expose a :class:`repro.sqlengine.Database` as a data source."""

    def __init__(self, database: Database, name: str | None = None) -> None:
        super().__init__(name or database.name)
        self.database = database

    def tables(self) -> list[TableInfo]:
        infos = []
        for schema in self.database.catalog.tables():
            infos.append(
                TableInfo(
                    name=schema.name,
                    columns=[c.name for c in schema.columns],
                    column_types=[c.data_type.value for c in schema.columns],
                    row_count=self.database.table_rowcount(schema.name),
                    comment=schema.comment,
                )
            )
        return infos

    def prompt_context(
        self, max_values_per_column: int = 20
    ) -> tuple[str, ...]:
        """Served from the ``sql`` cache tier under the database's data
        version, so any write retires it like every other cached read."""
        compute = super().prompt_context
        database = self.database
        key = (
            "prompt_context",
            database._cache_token,
            database.name,
            database.data_version,
            max_values_per_column,
        )
        return get_cache_manager().cached(
            "sql",
            key,
            lambda: compute(max_values_per_column),
            database=database.name,
        )

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        try:
            return self.database.execute(sql, parameters)
        except SqlEngineError as exc:
            raise DataSourceError(str(exc)) from exc
