"""Boot the production configuration and bring it to a warm state.

Everything a round does before its timed region: seeded data, the
booted stack with every subsystem on, tenants, server-side sessions and
the per-app warm turns. ``setup_s`` times these plus the workload's
own warm-up ops (see :func:`benchmarks.e2e.rounds.run_round`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.core import DBGPT, DbGptConfig
from repro.datasets import build_corpus, build_sales_database
from repro.datasources import EngineSource
from repro.llm.prompts import build_text2sql_prompt
from repro.rag.document import Document
from repro.resilience.config import ResilienceConfig
from repro.server.request import Request
from repro.serving.config import ServingConfig
from repro.tenancy import QuotaConfig, TenancyConfig

from benchmarks.e2e.workloads import LANES, TENANTS, Inputs, Op, Workload


def token_for(tenant: str) -> str:
    return f"token-{tenant}"


def auth_headers(tenant: str) -> dict[str, str]:
    return {"Authorization": f"Bearer {token_for(tenant)}"}


def production_config() -> DbGptConfig:
    """Every subsystem on, as a deployment serving tenants would run it.

    Cache, privacy scrubbing and the tracing middleware are on by
    default; the built-in tracer keeps its shipped settings. Quotas sit
    far above the offered load: a throttled turn is a benchmark bug.
    """
    quota = QuotaConfig(
        refill_per_second=1_000_000.0, burst=1_000_000.0, max_inflight=64
    )
    return DbGptConfig(
        serving=ServingConfig(enabled=True),
        resilience=ResilienceConfig(enabled=True),
        tenancy=TenancyConfig(enabled=True, quota=quota),
        auth_principals={token_for(tenant): tenant for tenant in TENANTS},
    )


@dataclass
class Data:
    """The seeded inputs of one round."""

    database: Any
    corpus: Any
    inputs: Inputs


def load_data(seed: int, n_orders: int) -> Data:
    """Build the sales database and document corpus from ``seed``."""
    database = build_sales_database(seed=seed, n_orders=n_orders)
    corpus = build_corpus(seed=seed, docs_per_topic=50, queries_per_topic=10)

    def column(sql: str) -> tuple[float, ...]:
        return tuple(sorted(row[0] for row in database.execute(sql).rows))

    inputs = Inputs(
        amounts=column("SELECT amount FROM orders"),
        prices=column("SELECT price FROM products"),
        ages=column("SELECT age FROM users"),
        n_users=database.table_rowcount("users"),
        n_products=database.table_rowcount("products"),
        next_order_id=n_orders + 1,
        kb_topics=_corpus_vocabulary(corpus),
    )
    return Data(database, corpus, inputs)


_TOPICAL_QUERY = re.compile(r"How does the (.+) work\?")


def _corpus_vocabulary(corpus: Any) -> tuple:
    """``(topic, terms, entities)`` read back from the corpus' public
    labels: its topical query cases name the terms, its per-document
    entity lists the entities."""
    terms: dict[str, list[str]] = {}
    entities: dict[str, set[str]] = {}
    for case in corpus.queries:
        match = _TOPICAL_QUERY.fullmatch(case.query)
        if match is not None:
            terms.setdefault(case.topic, []).append(match.group(1))
    for doc_id, names in corpus.doc_entities.items():
        entities.setdefault(corpus.doc_topics[doc_id], set()).update(names)
    return tuple(
        (topic, tuple(terms[topic]), tuple(sorted(entities[topic])))
        for topic in sorted(terms)
    )


@dataclass
class Stack:
    """A booted instance plus the handles the load generator needs."""

    dbgpt: DBGPT
    server: Any
    database: Any
    corpus: Any
    #: (lane, tenant, app) -> server-side session id
    sessions: dict[tuple[int, str, str], str]
    #: The text2sql prompt with ``{question}`` left open (gen_concurrent).
    prompt_template: str

    def chat(self, lane: int, op: Op):
        """One turn through the server's tenant surface."""
        return self.server.handle(
            Request(
                "POST",
                "/v1/chat",
                {
                    "session_id": self.sessions[(lane, op.tenant, op.app)],
                    "message": op.text,
                },
                headers=auth_headers(op.tenant),
            )
        )

    def prompt_for(self, question: str) -> str:
        return self.prompt_template.replace(_QUESTION_SLOT, question)

    def shutdown(self) -> None:
        self.dbgpt.shutdown()


_QUESTION_SLOT = "<<question>>"


def boot(data: Data, workload: Workload) -> Stack:
    """Boot, register data and tenants, open one session per
    (lane, tenant, app) through ``POST /v1/sessions``."""
    dbgpt = DBGPT.boot(production_config())
    source = EngineSource(data.database)
    dbgpt.register_source(source)
    dbgpt.add_documents(
        Document(doc_id, text) for doc_id, text in data.corpus.documents.items()
    )
    for tenant in TENANTS:
        dbgpt.register_tenant(tenant)
    server = dbgpt.server()
    sessions = {}
    for lane in range(LANES):
        for tenant in TENANTS:
            for app in workload.apps:
                response = server.handle(
                    Request(
                        "POST",
                        "/v1/sessions",
                        {"app": app},
                        headers=auth_headers(tenant),
                    )
                )
                if response.status != 201:
                    raise RuntimeError(
                        f"could not open a session: {response.body}"
                    )
                sessions[(lane, tenant, app)] = response.body["session_id"]
    return Stack(
        dbgpt,
        server,
        data.database,
        data.corpus,
        sessions,
        build_text2sql_prompt(source, _QUESTION_SLOT),
    )


#: The single-threaded warm turn per app. Two clients making the first
#: ``knowledge_qa`` call together race in ``KnowledgeBase._refresh``
#: (see the findings log), so lazy indexes are built here, by one thread.
_WARM_TURNS = {
    "text2sql": "How many orders are there?",
    "chat2db": "How many users are there?",
    "chat2data": "What is the total amount per region?",
    "chat2viz": "What is the total amount per category?",
    "knowledge_qa": "How does the index work?",
    "data_analysis": "Build a sales report by category using one dimension",
}


def warm_apps(stack: Stack, workload: Workload) -> None:
    for app in workload.apps:
        op = Op("chat", TENANTS[0], app, _WARM_TURNS[app])
        response = stack.chat(0, op)
        if response.status != 200:
            raise RuntimeError(f"warm turn failed on {app}: {response.body}")
