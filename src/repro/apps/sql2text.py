"""SQL-to-Text application: explain SQL in plain language."""

from __future__ import annotations

from repro.apps.base import Application, AppResponse
from repro.llm.prompts import build_sql2text_prompt
from repro.smmf.client import ClientError, LLMClient


class Sql2TextApp(Application):
    name = "sql2text"

    def __init__(self, client: LLMClient, model: str = "chat") -> None:
        self._client = client
        self._model = model

    def chat(self, text: str) -> AppResponse:
        prompt = build_sql2text_prompt(text.strip())
        try:
            explanation = self._client.generate(
                self._model, prompt, task="sql2text"
            )
        except ClientError as exc:
            return AppResponse(
                text=f"I could not explain that SQL: {exc}",
                ok=False,
                metadata={"error": str(exc)},
            )
        return AppResponse(text=explanation, payload=explanation)
