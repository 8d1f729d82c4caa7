"""Pre-execution validation gate for model-generated SQL.

Applications call :func:`gate_sql` between generation and execution:
the draft is analyzed against the data source's schema, and on
error-severity findings the diagnostics are fed back to the model for
one bounded repair attempt (the adaptive feedback loop from the paper).
SQL that still fails is rejected with structured diagnostics — it is
never executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.analysis.sql_analyzer import SqlAnalyzer
from repro.obs.metrics import Counter, MetricHandle
from repro.sqlengine.binder import NameResolver
from repro.sqlengine.catalog import Catalog, ColumnSchema, TableSchema
from repro.sqlengine.database import Database
from repro.sqlengine.errors import TypeCheckError
from repro.sqlengine.nodes import Statement
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.types import DataType

_DIAGNOSTICS = MetricHandle(
    Counter, "analysis_diagnostics_total", "analyzer findings by code",
    ("code", "severity"),
)
_OUTCOMES = MetricHandle(
    Counter, "analysis_gate_total", "pre-execution gate outcomes", ("outcome",)
)


def catalog_for_source(source: Any) -> Catalog:
    """A :class:`Catalog` describing ``source``'s schema.

    Engine-backed sources expose their real catalog; every other
    connector is reconstructed from its :class:`TableInfo` metadata.
    """
    database = getattr(source, "database", None)
    catalog = getattr(database, "catalog", None)
    if isinstance(catalog, Catalog):
        return catalog
    rebuilt = Catalog()
    for info in source.tables():
        columns = []
        for name, type_name in zip(info.columns, info.column_types):
            try:
                data_type = DataType.from_name(type_name)
            except TypeCheckError:
                data_type = DataType.TEXT
            columns.append(ColumnSchema(name, data_type))
        rebuilt.create_table(TableSchema(info.name, columns))
    return rebuilt


def schema_for_source(source: Any) -> NameResolver:
    """What SQL bound for ``source`` binds against: an engine-backed
    source's :class:`Database`, so the gate and execution share one
    prepared statement (parse and binding); :func:`catalog_for_source`
    for every other connector."""
    database = getattr(source, "database", None)
    if isinstance(database, Database):
        return database
    return catalog_for_source(source)


def parser_for_source(source: Any) -> Callable[[str], Statement]:
    """How to parse SQL bound for ``source``: an engine-backed source's
    :meth:`Database.parse` (the prepared-statement memo execution
    reads); :func:`parse_sql` for every other connector."""
    database = getattr(source, "database", None)
    return database.parse if isinstance(database, Database) else parse_sql


def _count_diagnostics(diagnostics: list[Diagnostic]) -> None:
    """Publish one ``analysis_diagnostics_total`` sample per finding
    (the series exists, empty, after the first analysis)."""
    _DIAGNOSTICS.instrument()
    for item in diagnostics:
        _DIAGNOSTICS.labels(item.code, item.severity.value)()


@dataclass
class GateResult:
    """Outcome of one pass through the validation gate."""

    sql: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    ok: bool = True
    repaired: bool = False
    attempts: int = 0

    def diagnostics_payload(self) -> list[dict[str, Any]]:
        """JSON-friendly diagnostics for ``AppResponse.metadata``."""
        return [d.to_dict() for d in self.diagnostics]

    def error_summary(self) -> str:
        return "; ".join(
            d.render() for d in self.diagnostics if d.severity.value == "error"
        )


def review_sql(
    sql: str,
    source: Any = None,
    catalog: Optional[Catalog] = None,
) -> list[Diagnostic]:
    """Analyze one statement against a source's schema (or an explicit
    catalog)."""
    schema = catalog
    if schema is None and source is not None:
        schema = schema_for_source(source)
    diagnostics = SqlAnalyzer(schema).analyze_sql(sql)
    _count_diagnostics(diagnostics)
    return diagnostics


def gate_sql(
    client: Any,
    model: str,
    source: Any,
    question: str,
    sql: str,
    max_repairs: int = 1,
) -> GateResult:
    """Validate ``sql``; on errors, retry through the model at most
    ``max_repairs`` times with the diagnostics as feedback.

    For engine-backed sources the verdict is served from the SQL cache
    tier: gating is a deterministic function of the statement, the
    schema and the (cached) model, so a repeated question skips
    re-analysis. The key embeds the source's schema epoch and the data
    versions of the tables its prompt context samples (a repair prompt
    embeds that context), so DDL and writes to those tables retire
    cached verdicts. Callers must treat the result as
    read-only (they already do: diagnostics are exported via
    :meth:`GateResult.diagnostics_payload`, which copies).
    """
    from repro.cache.manager import get_cache_manager

    database = getattr(source, "database", None)
    if database is None:
        return _gate_uncached(
            client, model, source, question, sql, max_repairs
        )
    key = (
        "gate",
        database._cache_token,
        source.sampled_versions(),
        model,
        int(max_repairs),
        question,
        sql,
    )
    return get_cache_manager().cached(
        "sql",
        key,
        lambda: _gate_uncached(
            client, model, source, question, sql, max_repairs
        ),
    )


def _gate_uncached(
    client: Any,
    model: str,
    source: Any,
    question: str,
    sql: str,
    max_repairs: int,
) -> GateResult:
    """One real pass through analysis and bounded repair."""
    from repro.llm.prompts import build_sql_repair_prompt
    from repro.smmf.client import ClientError

    analyzer = SqlAnalyzer(schema_for_source(source))
    diagnostics = analyzer.analyze_sql(sql)
    _count_diagnostics(diagnostics)
    if not has_errors(diagnostics):
        _OUTCOMES.labels("clean")()
        return GateResult(sql, diagnostics)
    attempts = 0
    for _ in range(max_repairs):
        attempts += 1
        prompt = build_sql_repair_prompt(
            source,
            question,
            sql,
            [d.render() for d in diagnostics],
        )
        try:
            candidate = client.generate(model, prompt, task="text2sql")
        except ClientError:
            break
        candidate_diags = analyzer.analyze_sql(candidate)
        _count_diagnostics(candidate_diags)
        if not has_errors(candidate_diags):
            _OUTCOMES.labels("repaired")()
            return GateResult(
                candidate,
                candidate_diags,
                ok=True,
                repaired=True,
                attempts=attempts,
            )
        sql, diagnostics = candidate, candidate_diags
    _OUTCOMES.labels("rejected")()
    return GateResult(
        sql, diagnostics, ok=False, repaired=False, attempts=attempts
    )
