"""The DBGPT facade."""

from __future__ import annotations

from typing import Optional

from repro.agents.memory import AgentMemory
from repro.cache.manager import configure_cache
from repro.apps.base import Application
from repro.apps.chat2data import Chat2DataApp
from repro.apps.chat2db import Chat2DbApp
from repro.apps.chat2excel import Chat2ExcelApp
from repro.apps.chat2viz import Chat2VizApp
from repro.apps.data_analysis import GenerativeAnalysisApp
from repro.apps.knowledge_qa import KnowledgeQAApp
from repro.apps.sql2text import Sql2TextApp
from repro.apps.text2sql import Text2SqlApp
from repro.core.config import DbGptConfig, ModelConfig
from repro.core.session import ChatSession
from repro.datasources.base import DataSource
from repro.datasources.excel_source import Workbook
from repro.datasources.registry import DataSourceRegistry
from repro.llm.chat_model import ChatModel
from repro.llm.embedding_model import EmbeddingModel
from repro.llm.planner_model import PlannerModel
from repro.llm.sql_coder import SqlCoderModel
from repro.rag.knowledge_base import KnowledgeBase
from repro.rag.loaders import Loader
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.server.middleware import (
    AuthMiddleware,
    Middleware,
    PrivacyMiddleware,
    TracingMiddleware,
)
from repro.server.service import DbGptServer
from repro.smmf.controller import model_metrics
from repro.smmf.deploy import deploy
from repro.smmf.spec import ModelSpec
# A module, not a name: the fabric imports ``repro.core.session``, so
# importing ``repro.tenancy.fabric`` first reaches this module while
# the fabric is still half-built.
from repro.tenancy import fabric as tenancy_fabric


def _model_factory(config: ModelConfig):
    builders = {
        "sql-coder": lambda: SqlCoderModel(config.name),
        "chat": lambda: ChatModel(config.name),
        "planner": lambda: PlannerModel(config.name),
        "embedding": lambda: EmbeddingModel(config.name),
    }
    return builders[config.kind]


def build_source_apps(
    client,
    source: DataSource,
    memory: Optional[AgentMemory] = None,
    sql_model: str = "sql-coder",
) -> dict[str, Application]:
    """The standard application set over one datasource.

    Shared by the facade (its default source) and the tenant fabric
    (per-tenant sources, honoring the tenant's ``model_preference``
    via ``sql_model``). ``data_analysis`` needs an agent memory, so it
    only exists when one is supplied.
    """
    apps: dict[str, Application] = {
        "text2sql": Text2SqlApp(client, source, model=sql_model),
        "sql2text": Sql2TextApp(client),
        "chat2db": Chat2DbApp(client, source),
        "chat2data": Chat2DataApp(client, source),
        "chat2viz": Chat2VizApp(client, source),
    }
    if memory is not None:
        apps["data_analysis"] = GenerativeAnalysisApp(
            client, source, memory=memory
        )
    return apps


class DBGPT:
    """Boot and operate a complete DB-GPT instance.

    >>> # dbgpt = DBGPT.boot()
    >>> # dbgpt.register_source(EngineSource(db))
    >>> # dbgpt.chat("chat2db", "how many orders are there?")
    """

    def __init__(self, config: Optional[DbGptConfig] = None) -> None:
        self.config = config or DbGptConfig()
        #: Booting installs the instance's cache configuration as the
        #: process-wide manager all wired layers consult.
        self.cache = configure_cache(self.config.cache)
        self.controller, self.client = deploy(
            [
                ModelSpec(
                    model.name,
                    _model_factory(model),
                    replicas=model.replicas,
                    latency_ms=model.latency_ms,
                )
                for model in self.config.models
            ],
            serving=self.config.serving,
            resilience=self.config.resilience,
        )
        self.sources = DataSourceRegistry()
        self.knowledge = KnowledgeBase(name="dbgpt-knowledge")
        self.memory = AgentMemory(self.config.memory_path)
        self._apps: dict[str, Application] = {}
        self._sessions: dict[str, ChatSession] = {}
        self._default_source: Optional[DataSource] = None
        #: The multi-tenant session fabric (``docs/tenancy.md``).
        self.fabric = tenancy_fabric.TenantFabric(self, self.config.tenancy)

    @classmethod
    def boot(cls, config: Optional[DbGptConfig] = None) -> "DBGPT":
        return cls(config)

    # -- data registration ---------------------------------------------------

    def register_source(
        self, source: DataSource, default: bool = False
    ) -> None:
        """Register a data source and build its applications."""
        self.sources.register(source)
        if default or self._default_source is None:
            self._default_source = source
            self._build_source_apps(source)

    def register_workbook(self, workbook: Workbook) -> None:
        self._apps["chat2excel"] = Chat2ExcelApp(self.client, workbook)

    def load_knowledge(self, loader: Loader) -> int:
        """Index documents and (re)build the knowledge QA app."""
        count = self.knowledge.load(loader)
        self._apps["knowledge_qa"] = KnowledgeQAApp(
            self.client,
            self.knowledge,
            strategy=self.config.retrieval_strategy,
        )
        return count

    def add_documents(self, documents) -> int:
        count = self.knowledge.add_documents(documents)
        self._apps["knowledge_qa"] = KnowledgeQAApp(
            self.client,
            self.knowledge,
            strategy=self.config.retrieval_strategy,
        )
        return count

    def _build_source_apps(self, source: DataSource) -> None:
        self._apps.update(
            build_source_apps(self.client, source, memory=self.memory)
        )

    def default_source(self) -> Optional[DataSource]:
        """The source the per-source applications were built against."""
        return self._default_source

    # -- interaction -----------------------------------------------------------

    def app(self, name: str) -> Application:
        application = self._apps.get(name.lower())
        if application is None:
            raise KeyError(
                f"no app named {name!r}; available: {self.app_names()}"
            )
        return application

    def app_names(self) -> list[str]:
        return sorted(self._apps)

    def chat(self, app_name: str, text: str):
        """One-shot interaction with an application."""
        return self.app(app_name).chat(text)

    def session(self, app_name: str) -> ChatSession:
        """Start (or resume) a chat session with an application."""
        key = app_name.lower()
        if key not in self._sessions:
            self._sessions[key] = ChatSession(self.app(key))
        return self._sessions[key]

    # -- tenancy -------------------------------------------------------------

    def register_tenant(self, tenant_id: str, **kwargs):
        """Register a tenant on the fabric.

        See :meth:`repro.tenancy.fabric.TenantFabric.register_tenant`
        for the resource-binding keywords (``source``, ``documents``,
        ``model_preference``, ``quota``).
        """
        return self.fabric.register_tenant(tenant_id, **kwargs)

    def tenant_chat(
        self,
        tenant_id: str,
        text: str,
        session_id: Optional[str] = None,
        app_name: Optional[str] = None,
    ):
        """One tenant turn through the fabric; returns
        ``(session_record, response)``."""
        return self.fabric.chat(
            tenant_id, text, session_id=session_id, app_name=app_name
        )

    def tenants(self) -> list[dict]:
        """Control-plane rows for every registered tenant."""
        return self.fabric.describe()

    # -- server layer -----------------------------------------------------------

    def server(
        self, middlewares: Optional[list[Middleware]] = None
    ) -> DbGptServer:
        """The HTTP-shaped server over the tenant fabric.

        Every served turn is a tenant turn (``POST /v1/chat``), and
        per-tenant bearer tokens (``auth_principals``) authenticate
        callers as their tenant.
        """
        if middlewares is None:
            # Tracing sits outermost so auth rejections and privacy
            # scrubbing are visible inside the request span.
            middlewares = [TracingMiddleware()]
            if self.config.auth_token or self.config.auth_principals:
                middlewares.append(
                    AuthMiddleware(
                        self.config.auth_token or "",
                        principals=self.config.auth_principals,
                    )
                )
            if self.config.privacy:
                middlewares.append(PrivacyMiddleware())
        return DbGptServer(self.fabric, middlewares)

    # -- observability -------------------------------------------------------

    def model_metrics(self) -> dict:
        return model_metrics()

    @property
    def tracer(self):
        """The process-wide tracer all layers report into."""
        return get_tracer()

    def last_trace(self):
        """Spans of the most recently completed request trace."""
        return get_tracer().last_trace()

    def metrics_snapshot(self) -> dict:
        """Every unified metric (see ``docs/observability.md``)."""
        return get_registry().snapshot()

    def health_snapshot(self) -> list:
        """Per-worker health rows (alive/healthy/breaker state)."""
        return self.controller.health_snapshot()

    # -- serving -------------------------------------------------------------

    def serving_stats(self) -> dict:
        """Serving engine statistics (``GET /v1/serving``)."""
        return self.client.serving_stats()

    def shutdown(self) -> None:
        """Stop the serving engine's threads (no-op if it never ran)."""
        self.controller.scheduler.close()

    # -- caching -------------------------------------------------------------

    def cache_stats(self) -> dict:
        """Per-tier cache statistics (see ``docs/caching.md``)."""
        return self.cache.stats()

    def clear_caches(self) -> int:
        """Drop every cached entry; returns how many were dropped."""
        return self.cache.clear()
