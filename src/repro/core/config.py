"""Configuration for booting a DB-GPT instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.config import CacheConfig
from repro.resilience.config import ResilienceConfig
from repro.serving.config import ServingConfig
from repro.tenancy.config import TenancyConfig


@dataclass
class ModelConfig:
    """One model deployment entry.

    ``kind`` selects the simulated architecture: ``sql-coder``,
    ``chat``, ``planner`` or ``embedding``.
    """

    name: str
    kind: str
    replicas: int = 1
    latency_ms: float = 10.0

    _KINDS = ("sql-coder", "chat", "planner", "embedding")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown model kind {self.kind!r}; known: {self._KINDS}"
            )


@dataclass
class DbGptConfig:
    """Boot configuration.

    Defaults deploy the standard private-model trio the applications
    expect (sql-coder, chat, planner).
    """

    models: list[ModelConfig] = field(
        default_factory=lambda: [
            ModelConfig("sql-coder", "sql-coder", replicas=2),
            ModelConfig("chat", "chat"),
            ModelConfig("planner", "planner"),
        ]
    )
    #: Scrub PII from user messages at the server boundary.
    privacy: bool = True
    #: Bearer token for the server layer (None disables auth).
    auth_token: Optional[str] = None
    #: Per-tenant bearer tokens: token -> principal (tenant id). Each
    #: authenticated request is stamped with its principal, which the
    #: ``/v1`` tenant surface uses for ownership checks.
    auth_principals: Optional[dict[str, str]] = None
    #: File path for the agent communication archive (None = memory only).
    memory_path: Optional[str] = None
    #: Default retrieval strategy for knowledge QA.
    retrieval_strategy: str = "hybrid"
    #: Multi-tier cache sizing (see ``docs/caching.md``); every tier
    #: is always on.
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: Tuning for the continuous-batching engine every model request
    #: goes through (see ``docs/serving.md``); it cannot be turned off.
    serving: ServingConfig = field(default_factory=ServingConfig)
    #: Resilience layer — retry/backoff, per-worker circuit breakers,
    #: health recovery and degraded routing (``docs/resilience.md``);
    #: it cannot be turned off.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Multi-tenant session fabric — tenant registry, session
    #: store, admission quotas, partitioned caches (``docs/tenancy.md``);
    #: it cannot be turned off.
    tenancy: TenancyConfig = field(default_factory=TenancyConfig)

    def model_names(self) -> list[str]:
        return [model.name for model in self.models]
