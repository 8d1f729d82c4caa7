"""chat2db: conversational access to a whole database.

Routes meta-commands ("show tables", "describe orders") directly and
compiles everything else through Text-to-SQL, executes it, and renders
the result conversationally with the generated SQL attached.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.analysis.gate import gate_sql, parser_for_source
from repro.apps.base import Application, AppResponse
from repro.datasources.base import DataSource, DataSourceError
from repro.datasources.inspector import profile_source
from repro.llm.prompts import build_text2sql_prompt
from repro.smmf.client import ClientError, LLMClient
from repro.sqlengine import SqlSyntaxError, nodes, parse_sql

_SHOW_TABLES = re.compile(r"^(show|list)\s+(the\s+)?tables?\b", re.IGNORECASE)
_DESCRIBE = re.compile(r"^(describe|profile)\s+(\w+)", re.IGNORECASE)


def _is_read_only(
    sql: str, parse: Callable[[str], nodes.Statement] = parse_sql
) -> bool:
    """True when the statement cannot mutate data or schema."""
    try:
        statement = parse(sql)
    except SqlSyntaxError:
        return False
    return isinstance(statement, (nodes.Select, nodes.Explain))


class Chat2DbApp(Application):
    name = "chat2db"

    def __init__(
        self,
        client: LLMClient,
        source: DataSource,
        sql_model: str = "sql-coder",
        chat_model: str = "chat",
        max_rows: int = 20,
        read_only: bool = True,
        validate: bool = True,
        max_repairs: int = 1,
    ) -> None:
        self._client = client
        self._source = source
        self._sql_model = sql_model
        self._chat_model = chat_model
        self._max_rows = max_rows
        self._validate = validate
        self._max_repairs = max_repairs
        #: Conversational interfaces default to read-only: a chat turn
        #: should never mutate the database unless explicitly allowed.
        self.read_only = read_only
        self.history: list[tuple[str, str]] = []

    def reset(self) -> None:
        self.history.clear()

    def chat(self, text: str) -> AppResponse:
        response = self._dispatch(text.strip())
        self.history.append((text, response.text))
        return response

    def _dispatch(self, text: str) -> AppResponse:
        if _SHOW_TABLES.match(text):
            listing = "\n".join(
                info.describe() for info in self._source.tables()
            )
            return AppResponse(
                text=f"The database has these tables:\n{listing}",
                payload=self._source.tables(),
            )
        described = _DESCRIBE.match(text)
        if described:
            return self._describe_table(described.group(2))
        return self._query(text)

    def _describe_table(self, table: str) -> AppResponse:
        if not self._source.has_table(table):
            return AppResponse(
                text=(
                    f"There is no table named {table!r}. Known tables: "
                    f"{', '.join(self._source.table_names())}."
                ),
                ok=False,
            )
        profiles = profile_source(self._source, table)
        lines = [profile.describe() for profile in profiles]
        return AppResponse(
            text="\n".join(lines), payload=profiles
        )

    def _query(self, text: str) -> AppResponse:
        prompt = build_text2sql_prompt(self._source, text)
        try:
            sql = self._client.generate(
                self._sql_model, prompt, task="text2sql"
            )
        except ClientError as exc:
            return AppResponse(
                text=(
                    "I could not turn that into SQL. Try mentioning a "
                    f"table or column name. ({exc})"
                ),
                ok=False,
                metadata={"error": str(exc), "diagnostics": []},
            )
        diagnostics: list[dict] = []
        if self._validate:
            # Pre-execution gate: analyze the draft, feed error findings
            # back through the model once, and never execute SQL that
            # still carries error-severity diagnostics.
            gated = gate_sql(
                self._client,
                self._sql_model,
                self._source,
                text,
                sql,
                max_repairs=self._max_repairs,
            )
            diagnostics = gated.diagnostics_payload()
            if not gated.ok:
                return AppResponse(
                    text=(
                        "I generated SQL but it failed validation against "
                        f"the schema: {gated.error_summary()}"
                    ),
                    ok=False,
                    payload=gated.sql,
                    metadata={
                        "sql": gated.sql,
                        "error": "sql failed validation",
                        "diagnostics": diagnostics,
                    },
                )
            sql = gated.sql
        if self.read_only and not _is_read_only(
            sql, parser_for_source(self._source)
        ):
            return AppResponse(
                text=(
                    "That would modify the database, and this chat is "
                    "read-only. Set read_only=False to allow writes."
                ),
                ok=False,
                payload=sql,
                metadata={
                    "sql": sql,
                    "error": "write blocked",
                    "diagnostics": diagnostics,
                },
            )
        try:
            result = self._source.query(sql)
        except DataSourceError as exc:
            return AppResponse(
                text=f"The query failed to execute: {exc}",
                ok=False,
                payload=sql,
                metadata={
                    "sql": sql,
                    "error": str(exc),
                    "diagnostics": diagnostics,
                },
            )
        table_text = result.format_table(max_rows=self._max_rows)
        answer = f"SQL: {sql}\n{table_text}"
        return AppResponse(
            text=answer,
            payload=result,
            metadata={
                "sql": sql,
                "row_count": len(result.rows),
                "diagnostics": diagnostics,
            },
        )
