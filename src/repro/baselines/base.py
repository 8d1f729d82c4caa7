"""The common adapter interface all probed frameworks implement.

Every method either performs the capability and returns evidence the
probe can verify, or raises :class:`NotSupported`. A shared
:class:`ModelGateway` lets the privacy probe observe exactly what text
each framework ships to an *external* model endpoint.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.datasources.base import DataSource


class NotSupported(Exception):
    """The framework does not provide this capability."""


@dataclass
class GatewayCall:
    """One LLM call observed by the gateway."""

    model: str
    prompt: str
    external: bool


class ModelGateway:
    """Routes model calls and records whether they left the machine.

    ``external=True`` marks hosted-API models (the GPT-4 path);
    ``external=False`` marks locally served private models. The privacy
    probe inspects :attr:`calls` afterwards.
    """

    def __init__(self, client, external_models: set[str]) -> None:
        self._client = client
        self._external = set(external_models)
        self.calls: list[GatewayCall] = []

    def generate(self, model: str, prompt: str, task: str | None = None) -> str:
        self._record(model, prompt)
        return self._client.generate(model, prompt, task=task)

    async def agenerate(
        self, model: str, prompt: str, task: str | None = None
    ) -> str:
        self._record(model, prompt)
        return await self._client.agenerate(model, prompt, task=task)

    def _record(self, model: str, prompt: str) -> None:
        self.calls.append(
            GatewayCall(
                model=model,
                prompt=prompt,
                external=model in self._external,
            )
        )

    def external_prompts(self) -> list[str]:
        return [call.prompt for call in self.calls if call.external]

    def reset(self) -> None:
        self.calls.clear()


@dataclass
class AgentRunEvidence:
    """What a multi-agent run produced (for the probe to verify)."""

    roles: list[str]
    outputs: list[Any]


@dataclass
class AnalysisEvidence:
    """What a generative-analysis run produced."""

    plan_steps: int
    charts: list[Any]
    aggregated: bool


class FrameworkAdapter(abc.ABC):
    """One framework under comparison."""

    name = "framework"

    def __init__(self, gateway: ModelGateway) -> None:
        self.gateway = gateway

    # Capability surfaces. Default: unsupported.

    def run_agents(self, task: str, source: DataSource) -> AgentRunEvidence:
        raise NotSupported(f"{self.name}: multi-agents")

    def deploy_models(self, model_names: list[str]) -> dict[str, str]:
        """Return {model_name: response} for a trivial prompt each."""
        raise NotSupported(f"{self.name}: multi-LLMs")

    def index_documents(self, documents: list[tuple[str, str, str]]) -> None:
        """Index (doc_id, format, text) triples from multiple sources."""
        raise NotSupported(f"{self.name}: RAG")

    def rag_query(self, question: str, k: int = 4) -> list[str]:
        """Return the doc_ids backing the answer."""
        raise NotSupported(f"{self.name}: RAG")

    def build_branching_workflow(self) -> Any:
        """Express and run a branch+join DAG; return both branch outputs."""
        raise NotSupported(f"{self.name}: workflow language")

    def finetune_text2sql(self, dataset, source: DataSource, database):
        """Return (base_accuracy, tuned_accuracy) on the test split."""
        raise NotSupported(f"{self.name}: fine-tuned Text-to-SQL")

    def text_to_sql(self, question: str, source: DataSource) -> str:
        raise NotSupported(f"{self.name}: Text-to-SQL")

    def sql_to_text(self, sql: str) -> str:
        raise NotSupported(f"{self.name}: SQL-to-Text")

    def chat_db(self, question: str, source: DataSource) -> Any:
        """Answer a question over a database; returns the result rows."""
        raise NotSupported(f"{self.name}: chat2db")

    def generative_analysis(
        self, goal: str, source: DataSource
    ) -> AnalysisEvidence:
        raise NotSupported(f"{self.name}: generative data analysis")

    def supports_language(self, language: str) -> bool:
        """Whether questions in ``language`` are understood natively."""
        return language == "en"
