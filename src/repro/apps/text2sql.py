"""Text-to-SQL application: question in, SQL out.

Since the observability PR this app executes as an AWEL workflow — the
paper's protocol layer — instead of straight-line Python: schema
linking (a RAG retrieval over per-table schema cards), prompt
construction, model generation (SMMF) and the pre-execution validation
gate each run as one operator. A traced request therefore produces the
full four-layer span tree::

    app.chat
    └─ awel.dag (text2sql)
       ├─ awel.operator (schema_link)   └─ rag.retrieve ...
       ├─ awel.operator (build_prompt)
       ├─ awel.operator (generate)      └─ smmf.generate └─ smmf.worker
       └─ awel.operator (validate)

The conversational behaviour is unchanged: the prompt still carries the
full schema (linking feeds ``metadata["linked_tables"]``), validation
and bounded repair work exactly as before, and
``metadata["diagnostics"]`` is always present.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.gate import GateResult, gate_sql
from repro.apps.base import Application, AppResponse
from repro.awel.dag import DAG
from repro.awel.operators import InputOperator, MapOperator
from repro.awel.runner import WorkflowRunner
from repro.cache.manager import get_cache_manager
from repro.datasources.base import DataSource
from repro.llm.prompts import build_text2sql_prompt
from repro.rag.document import Document
from repro.rag.knowledge_base import KnowledgeBase
from repro.smmf.client import ClientError, LLMClient


def schema_knowledge_base(source: DataSource) -> Optional[KnowledgeBase]:
    """One schema card per table, indexed for retrieval linking.

    Building the index embeds every card, so it is memoized in the RAG
    cache tier keyed on the cards' text: constructing several apps over
    the same database reuses one index instead of re-embedding the
    schema, while any schema or row-count change (the cards embed both)
    builds a fresh one. Returns None for a source without tables.
    """

    def build() -> Optional[KnowledgeBase]:
        kb = KnowledgeBase(name=f"schema:{source.name}")
        count = 0
        for info in source.tables():
            kb.add_document(
                Document(
                    info.name,
                    f"table {info.name}: {info.describe()} {info.comment}",
                )
            )
            count += 1
        return kb if count else None

    cards = tuple(
        f"{info.name}|{info.describe()}|{info.comment}"
        for info in source.tables()
    )
    return get_cache_manager().cached(
        "rag", ("schema-kb", source.name, cards), build
    )


class Text2SqlApp(Application):
    """Translate natural language to SQL via the served model.

    Does not execute the SQL (that is chat2db). With ``validate=True``
    every draft passes the semantic analyzer before being returned;
    error findings trigger up to ``max_repairs`` diagnostics-guided
    regeneration attempts, and an unrepairable draft is rejected with
    structured diagnostics instead of handed to the caller as if fine.

    ``metadata["diagnostics"]`` is always present (an empty list on a
    clean pass) so callers and benchmarks can assert on it uniformly;
    ``metadata["linked_tables"]`` names the tables the RAG schema
    linker ranked most relevant to the question.
    """

    name = "text2sql"

    def __init__(
        self,
        client: LLMClient,
        source: DataSource,
        model: str = "sql-coder",
        validate: bool = True,
        max_repairs: int = 1,
        link_k: int = 3,
    ) -> None:
        self._client = client
        self._source = source
        self._model = model
        self._validate = validate
        self._max_repairs = max_repairs
        self._link_k = link_k
        self._schema_kb = schema_knowledge_base(source)
        self._dag, self._tail = self._build_pipeline()
        self._runner = WorkflowRunner(self._dag)

    # -- pipeline construction ---------------------------------------------

    def _build_pipeline(self) -> tuple[DAG, MapOperator]:
        with DAG("text2sql") as dag:
            question = InputOperator(name="question")
            link = MapOperator(self._schema_link, name="schema_link")
            prompt = MapOperator(self._build_prompt, name="build_prompt")
            generate = MapOperator(self._generate, name="generate")
            validate = MapOperator(self._gate, name="validate")
            question >> link >> prompt >> generate >> validate
        return dag, validate

    # -- operator bodies ---------------------------------------------------

    def _schema_link(self, question: str) -> dict[str, Any]:
        linked: list[str] = []
        if self._schema_kb is not None:
            hits = self._schema_kb.retrieve(
                question, k=self._link_k, strategy="hybrid"
            )
            linked = [hit.chunk.doc_id for hit in hits]
        return {"question": question, "linked_tables": linked}

    def _build_prompt(self, state: dict[str, Any]) -> dict[str, Any]:
        state["prompt"] = build_text2sql_prompt(
            self._source, state["question"]
        )
        return state

    def _generate(self, state: dict[str, Any]) -> dict[str, Any]:
        state["sql"] = self._client.generate(
            self._model, state["prompt"], task="text2sql"
        )
        return state

    def _gate(self, state: dict[str, Any]) -> dict[str, Any]:
        if self._validate:
            state["gate"] = gate_sql(
                self._client,
                self._model,
                self._source,
                state["question"],
                state["sql"],
                max_repairs=self._max_repairs,
            )
        return state

    # -- the chat surface --------------------------------------------------

    def chat(self, text: str) -> AppResponse:
        try:
            ctx = self._runner.run(text)
        except ClientError as exc:
            return AppResponse(
                text=f"I could not translate that question: {exc}",
                ok=False,
                metadata={"error": str(exc), "diagnostics": []},
            )
        state = ctx.results[self._tail.node_id]
        linked = state.get("linked_tables", [])
        if not self._validate:
            return AppResponse(
                text=state["sql"],
                payload=state["sql"],
                metadata={
                    "model": self._model,
                    "diagnostics": [],
                    "linked_tables": linked,
                },
            )
        result: GateResult = state["gate"]
        metadata = {
            "model": self._model,
            "diagnostics": result.diagnostics_payload(),
            "repaired": result.repaired,
            "linked_tables": linked,
        }
        if not result.ok:
            return AppResponse(
                text=(
                    "The generated SQL failed validation: "
                    f"{result.error_summary()}"
                ),
                ok=False,
                payload=result.sql,
                metadata={**metadata, "error": "sql failed validation"},
            )
        return AppResponse(
            text=result.sql, payload=result.sql, metadata=metadata
        )
