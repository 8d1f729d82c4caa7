"""DB-GPT itself behind the same probe interface.

Every capability delegates to the real modules (agents, AWEL, RAG,
hub, SMMF); model calls go through locally served models only, with
PII scrubbed before any prompt is built — the privacy contract the
probes verify.
"""

from __future__ import annotations

from typing import Any

from repro.agents.team import DataAnalysisTeam
from repro.awel import (
    DAG,
    BranchOperator,
    InputOperator,
    JoinOperator,
    MapOperator,
    WorkflowRunner,
)
from repro.baselines.base import (
    AgentRunEvidence,
    AnalysisEvidence,
    FrameworkAdapter,
    ModelGateway,
)
from repro.datasources.base import DataSource
from repro.hub.evaluator import evaluate_model
from repro.hub.trainer import FineTuner
from repro.llm.prompts import build_sql2text_prompt, build_text2sql_prompt
from repro.llm.sql_coder import SqlCoderModel
from repro.nlu.schema_linking import SchemaIndex
from repro.rag.document import Document
from repro.rag.knowledge_base import KnowledgeBase
from repro.rag.privacy import PrivacyScrubber


class DbGptAdapter(FrameworkAdapter):
    name = "DB-GPT"

    #: Local private models (served by SMMF, never external).
    _SQL_MODEL = "sql-coder"
    _CHAT_MODEL = "chat"

    def __init__(self, gateway: ModelGateway) -> None:
        super().__init__(gateway)
        self._kb = KnowledgeBase(name="dbgpt-kb")
        self._scrubber = PrivacyScrubber()

    # -- multi-agents ---------------------------------------------------------

    def run_agents(self, task: str, source: DataSource) -> AgentRunEvidence:
        team = DataAnalysisTeam(source, self.gateway)
        report = team.run(task)
        roles = sorted(
            {
                message.sender
                for message in team.memory.conversation(
                    report.conversation_id
                )
                if message.sender != "user"
            }
        )
        return AgentRunEvidence(
            roles=roles, outputs=[report.dashboard]
        )

    # -- multi-LLMs -------------------------------------------------------------

    def deploy_models(self, model_names: list[str]) -> dict[str, str]:
        return {
            model: self.gateway.generate(
                model, f"ping from {self.name}", task="chat"
            )
            for model in model_names
        }

    # -- RAG ----------------------------------------------------------------

    def index_documents(self, documents: list[tuple[str, str, str]]) -> None:
        for doc_id, doc_format, text in documents:
            self._kb.add_document(
                Document(doc_id, text, metadata={"format": doc_format})
            )

    def rag_query(self, question: str, k: int = 4) -> list[str]:
        hits = self._kb.retrieve(question, k=k, strategy="hybrid")
        return [hit.chunk.doc_id for hit in hits]

    # -- AWEL -----------------------------------------------------------------

    def build_branching_workflow(self) -> Any:
        with DAG("probe") as dag:
            src = InputOperator(name="src")
            branch = BranchOperator(
                lambda v: "high" if v >= 10 else "low", name="branch"
            )
            high = MapOperator(lambda v: ("high", v), name="high")
            low = MapOperator(lambda v: ("low", v), name="low")
            join = JoinOperator(lambda *vals: vals[0], name="join")
            src >> branch
            branch >> high >> join
            branch >> low >> join
        runner = WorkflowRunner(dag)
        return (
            runner.run(42).results["join"],
            runner.run(3).results["join"],
        )

    # -- fine-tuning -------------------------------------------------------------

    def finetune_text2sql(self, dataset, source: DataSource, database):
        index = SchemaIndex.from_source(source)
        tuner = FineTuner(index, database)
        adapter, _report = tuner.fit(dataset.train, domain=dataset.domain)
        base = SqlCoderModel("dbgpt-base")
        tuned = adapter.apply_to(base, model_name="dbgpt-tuned")
        base_report = evaluate_model(base, source, database, dataset.test)
        tuned_report = evaluate_model(tuned, source, database, dataset.test)
        return (
            base_report.execution_accuracy,
            tuned_report.execution_accuracy,
        )

    # -- Text-to-SQL family --------------------------------------------------------

    def text_to_sql(self, question: str, source: DataSource) -> str:
        scrubbed = self._scrubber.scrub(question)
        prompt = build_text2sql_prompt(source, scrubbed.text)
        return self.gateway.generate(
            self._SQL_MODEL, prompt, task="text2sql"
        )

    def sql_to_text(self, sql: str) -> str:
        return self.gateway.generate(
            self._CHAT_MODEL, build_sql2text_prompt(sql), task="sql2text"
        )

    def chat_db(self, question: str, source: DataSource):
        sql = self.text_to_sql(question, source)
        return source.query(sql).rows

    # -- generative analysis -----------------------------------------------------

    def generative_analysis(
        self, goal: str, source: DataSource
    ) -> AnalysisEvidence:
        team = DataAnalysisTeam(source, self.gateway)
        report = team.run(goal)
        return AnalysisEvidence(
            plan_steps=len(report.plan.steps),
            charts=list(report.dashboard.charts),
            aggregated=bool(report.dashboard.narrative),
        )

    def supports_language(self, language: str) -> bool:
        return language in ("en", "zh")
