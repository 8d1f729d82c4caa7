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
        self._sampled: tuple = (None, None)  # per schema epoch

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

    def sampled_versions(self) -> tuple:
        """The schema epoch and the data versions of the tables whose
        values :meth:`prompt_context` samples (those with a TEXT column):
        everything a prompt built from this source depends on. The table
        set is found once per schema epoch."""
        epoch, read = self._sampled
        if epoch != self.database.schema_epoch:
            self._sampled = epoch, read = self.database.version_reader(
                lambda: [
                    info.name
                    for info in self.tables()
                    if "TEXT" in info.column_types
                ]
            )
        return epoch, read()

    def prompt_context(
        self, max_values_per_column: int = 20
    ) -> tuple[str, ...]:
        """Served from the ``sql`` cache tier under
        :meth:`sampled_versions`, so a write retires it only when it
        touches a table whose values the prompt shows."""
        compute = super().prompt_context
        database = self.database
        key = (
            "prompt_context",
            database._cache_token,
            database.name,
            self.sampled_versions(),
            max_values_per_column,
        )
        return get_cache_manager().cached(
            "sql", key, lambda: compute(max_values_per_column)
        )

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        try:
            return self.database.execute(sql, parameters)
        except SqlEngineError as exc:
            raise DataSourceError(str(exc)) from exc
