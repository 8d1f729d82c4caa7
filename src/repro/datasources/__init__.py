"""Data source connectors.

The paper's RAG module retrieves "from multiple data sources" and the
chat2db/chat2data/chat2excel applications each talk to a different kind
of backing store. This package provides one uniform interface
(:class:`DataSource`) with connectors for:

- :class:`EngineSource` — a :class:`repro.sqlengine.Database`
- :class:`CsvSource` — a directory of CSV files (one table each)
- :class:`ExcelSource` — a :class:`Workbook` of sheets (chat2excel)

plus a :class:`DataSourceRegistry` that resolves URI-style connection
strings (``engine://name``, ``csv:///path``, ...).
"""

from repro.datasources.base import DataSource, DataSourceError, TableInfo
from repro.datasources.csv_source import CsvSource, read_csv_records
from repro.datasources.engine_source import EngineSource
from repro.datasources.excel_source import ExcelSource, Sheet, Workbook
from repro.datasources.inspector import ColumnProfile, profile_source
from repro.datasources.registry import DataSourceRegistry

__all__ = [
    "ColumnProfile",
    "CsvSource",
    "DataSource",
    "DataSourceError",
    "DataSourceRegistry",
    "EngineSource",
    "ExcelSource",
    "Sheet",
    "TableInfo",
    "Workbook",
    "profile_source",
    "read_csv_records",
]
