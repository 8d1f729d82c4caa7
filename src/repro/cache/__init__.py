"""repro.cache — multi-tier caching and invalidation subsystem.

Three tiers accelerate the three hot paths of a chat turn (see
``docs/caching.md``):

- **inference** — SMMF responses; a cached turn skips the worker pool
  entirely.
- **rag** — query embeddings, retrieval results and memoized
  schema-card indexes.
- **sql** — SELECT results, invalidated by the per-table data versions
  a write bumps and the schema epoch DDL and ROLLBACK bump.

Every tier publishes hit/miss/eviction metrics through ``repro.obs``
and marks each outcome on the caller's span as ``cache.<tier>``.
"""

from repro.cache.config import TIER_NAMES, CacheConfig, TierConfig
from repro.cache.keys import (
    embedding_key,
    inference_key,
    instance_token,
    retrieval_key,
    sql_key,
)
from repro.cache.manager import (
    CacheManager,
    configure_cache,
    get_cache_manager,
    set_cache_manager,
)
from repro.cache.store import CacheStats, CacheStore, Uncached

__all__ = [
    "CacheConfig",
    "CacheManager",
    "CacheStats",
    "CacheStore",
    "TIER_NAMES",
    "TierConfig",
    "Uncached",
    "configure_cache",
    "embedding_key",
    "get_cache_manager",
    "inference_key",
    "instance_token",
    "retrieval_key",
    "set_cache_manager",
    "sql_key",
]
