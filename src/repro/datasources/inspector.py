"""Schema/profile inspection used to enrich LLM prompt context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.datasources.base import DataSource, quote_identifier


@dataclass
class ColumnProfile:
    """Summary statistics for one column."""

    table: str
    column: str
    distinct_count: int
    null_count: int
    min_value: Any = None
    max_value: Any = None
    sample_values: list[Any] = None  # type: ignore[assignment]

    def describe(self) -> str:
        parts = [
            f"{self.table}.{self.column}:",
            f"{self.distinct_count} distinct,",
            f"{self.null_count} null",
        ]
        if self.min_value is not None:
            parts.append(f"range [{self.min_value}, {self.max_value}]")
        if self.sample_values:
            rendered = ", ".join(str(v) for v in self.sample_values[:5])
            parts.append(f"e.g. {rendered}")
        return " ".join(parts)


def profile_source(
    source: DataSource,
    table: Optional[str] = None,
    sample_limit: int = 5,
) -> list[ColumnProfile]:
    """Profile every column of ``table`` (or all tables)."""
    profiles: list[ColumnProfile] = []
    for info in source.tables():
        if table is not None and info.name.lower() != table.lower():
            continue
        name = quote_identifier(info.name)
        for column in info.columns:
            quoted = quote_identifier(column)
            stats = source.query(
                f"SELECT COUNT(DISTINCT {quoted}), "
                f"COUNT(*) - COUNT({quoted}), "
                f"MIN({quoted}), MAX({quoted}) FROM {name}"
            ).rows[0]
            samples = source.query(
                f"SELECT DISTINCT {quoted} FROM {name} "
                f"WHERE {quoted} IS NOT NULL LIMIT {int(sample_limit)}"
            ).column(column)
            profiles.append(
                ColumnProfile(
                    table=info.name,
                    column=column,
                    distinct_count=stats[0],
                    null_count=stats[1],
                    min_value=stats[2],
                    max_value=stats[3],
                    sample_values=samples,
                )
            )
    return profiles
