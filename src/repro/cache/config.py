"""Configuration for the multi-tier cache subsystem.

Three tiers exist, one per layer the subsystem accelerates:

``inference``
    SMMF responses, keyed on (client, model, exact prompt, generation
    parameters).
``rag``
    Query embeddings, retrieval results and memoized schema-card
    indexes, keyed on the owning index plus its mutation version.
``sql``
    SELECT results, keyed on (database, canonical SQL, parameters,
    schema epoch, data versions of the tables read) — a write bumps its
    table's version and DDL or ROLLBACK the epoch, so a write can never
    be followed by a stale cached read.

Every knob is plain data so :class:`repro.core.config.DbGptConfig`
can embed a :class:`CacheConfig` without importing anything heavy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

TIER_NAMES = ("inference", "rag", "sql")


@dataclass
class TierConfig:
    """Bounds for one cache tier."""

    #: Maximum number of entries kept (LRU eviction beyond this).
    capacity: int = 512
    #: Seconds before an entry expires; ``None`` disables expiry.
    ttl_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")


@dataclass
class CacheConfig:
    """Configuration for every tier.

    Every tier is always on; a tier is sized, never switched off.
    """

    inference: TierConfig = field(default_factory=TierConfig)
    rag: TierConfig = field(
        default_factory=lambda: TierConfig(capacity=2048)
    )
    sql: TierConfig = field(
        default_factory=lambda: TierConfig(capacity=2048)
    )

    def tier(self, name: str) -> TierConfig:
        if name not in TIER_NAMES:
            raise KeyError(
                f"unknown cache tier {name!r}; known: {TIER_NAMES}"
            )
        return getattr(self, name)

    def with_tier(self, name: str, **changes) -> "CacheConfig":
        """A copy with one tier's settings replaced."""
        updated = replace(self.tier(name), **changes)
        return replace(self, **{name: updated})
