"""Knowledge-base question answering (RAG + chat model)."""

from __future__ import annotations

from typing import Optional

from repro.apps.base import Application, AppResponse
from repro.llm.prompts import build_qa_prompt
from repro.rag.knowledge_base import KnowledgeBase
from repro.smmf.client import ClientError, LLMClient


class KnowledgeQAApp(Application):
    """Answer questions from the knowledge base with citations."""

    name = "knowledge_qa"

    def __init__(
        self,
        client: LLMClient,
        knowledge_base: KnowledgeBase,
        model: str = "chat",
        strategy: str = "hybrid",
        k: int = 4,
        max_context_tokens: int = 512,
    ) -> None:
        self._client = client
        self._kb = knowledge_base
        self._model = model
        self._strategy = strategy
        self._k = k
        self._max_context_tokens = max_context_tokens

    def chat(self, text: str) -> AppResponse:
        packed = self._kb.build_context(
            text,
            k=self._k,
            strategy=self._strategy,
            max_tokens=self._max_context_tokens,
        )
        if not packed.used_chunk_ids:
            return AppResponse(
                text=(
                    "I do not have any knowledge relevant to that "
                    "question in the knowledge base."
                ),
                ok=False,
                metadata={"citations": []},
            )
        prompt = build_qa_prompt(packed.text, text)
        try:
            answer = self._client.generate(self._model, prompt, task="qa")
        except ClientError as exc:
            return AppResponse(
                text=f"The model failed to answer: {exc}",
                ok=False,
                metadata={"error": str(exc)},
            )
        citations = [
            self._kb.chunk(chunk_id).doc_id
            for chunk_id in packed.used_chunk_ids
        ]
        return AppResponse(
            text=answer,
            payload=packed,
            metadata={
                "citations": citations,
                "context_tokens": packed.token_count,
                "strategy": self._strategy,
            },
        )
