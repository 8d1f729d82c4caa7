"""chat2data: analytical question answering with narrative answers.

Unlike chat2db (which shows raw result tables), chat2data phrases the
answer in natural language — single values become sentences, grouped
results become short breakdowns.
"""

from __future__ import annotations

from repro.apps.base import Application, AppResponse
from repro.datasources.base import DataSource, DataSourceError
from repro.llm.prompts import build_text2sql_prompt
from repro.smmf.client import ClientError, LLMClient
from repro.sqlengine import ResultSet


class Chat2DataApp(Application):
    name = "chat2data"

    def __init__(
        self,
        client: LLMClient,
        source: DataSource,
        sql_model: str = "sql-coder",
        follow_ups: bool = True,
    ) -> None:
        from repro.nlu.followup import FollowUpRewriter

        self._client = client
        self._source = source
        self._sql_model = sql_model
        self._rewriter = FollowUpRewriter() if follow_ups else None

    def reset(self) -> None:
        if self._rewriter is not None:
            self._rewriter.reset()

    def chat(self, text: str) -> AppResponse:
        rewritten_from = None
        if self._rewriter is not None:
            rewrite = self._rewriter.rewrite(text)
            if rewrite.rewritten:
                rewritten_from = text
                text = rewrite.question
        prompt = build_text2sql_prompt(self._source, text)
        try:
            sql = self._client.generate(
                self._sql_model, prompt, task="text2sql"
            )
        except ClientError as exc:
            return AppResponse(
                text=f"I could not interpret that question: {exc}",
                ok=False,
                metadata={"error": str(exc)},
            )
        try:
            result = self._source.query(sql)
        except DataSourceError as exc:
            return AppResponse(
                text=f"The analysis failed: {exc}",
                ok=False,
                metadata={"sql": sql, "error": str(exc)},
            )
        answer = self._narrate(text, result)
        metadata = {"sql": sql}
        if rewritten_from is not None:
            metadata["rewritten_from"] = rewritten_from
            metadata["question"] = text
        return AppResponse(text=answer, payload=result, metadata=metadata)

    @staticmethod
    def _narrate(question: str, result: ResultSet) -> str:
        if not result.rows:
            return "The answer set is empty — no rows match."
        if len(result.rows) == 1 and len(result.rows[0]) == 1:
            value = result.rows[0][0]
            if isinstance(value, float):
                value = round(value, 2)
            return f"The answer is {value}."
        if len(result.columns) == 2:
            shown = result.rows[:8]
            parts = [f"{row[0]}: {_fmt(row[1])}" for row in shown]
            suffix = (
                f" (and {len(result.rows) - 8} more)"
                if len(result.rows) > 8
                else ""
            )
            return "Here is the breakdown — " + "; ".join(parts) + suffix + "."
        listed = ", ".join(str(row[0]) for row in result.rows[:10])
        suffix = " …" if len(result.rows) > 10 else ""
        return f"I found {len(result.rows)} results: {listed}{suffix}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    return str(value)
