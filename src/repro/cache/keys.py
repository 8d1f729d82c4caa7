"""Cache key construction shared by every tier.

Keys are plain hashable tuples whose first element names the keyspace,
so one store can host several families of entries without collisions.
Every key embeds two things that make reuse safe:

- an **instance token** — a process-unique integer identifying the
  owning object (client, database, knowledge base). Tokens come from a
  monotonic counter, never from ``id()``, because CPython reuses ids
  after garbage collection and a recycled id could silently serve
  another instance's entries.
- a **version** where the underlying data can change — the data
  versions of the tables a statement reads, a knowledge base's mutation
  count, an IDF table's document count. Writes bump the version, which retires every key
  minted under the old one; stale entries then age out via LRU/TTL.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_instance_tokens = itertools.count(1)


def instance_token() -> int:
    """A process-unique token for one cache-participating object."""
    return next(_instance_tokens)


def freeze_metadata(metadata: Optional[dict[str, Any]]) -> tuple:
    """A hashable, order-insensitive rendering of request metadata."""
    if not metadata:
        return ()
    return tuple(sorted((str(k), repr(v)) for k, v in metadata.items()))


def inference_key(
    token: int,
    model: str,
    prompt: str,
    task: Optional[str],
    max_tokens: int,
    metadata: Optional[dict[str, Any]] = None,
) -> tuple:
    """SMMF tier: (client, model, parameters, prompt). The prompt is
    keyed exactly: a whitespace variant is a separate entry."""
    return (
        "llm",
        token,
        model,
        task or "",
        int(max_tokens),
        freeze_metadata(metadata),
        prompt,
    )


def sql_key(
    token: int,
    database: str,
    version: int,
    canonical_sql: str,
    parameters: tuple,
    schema_epoch: int = 0,
) -> tuple:
    """SQL tier: database identity, the data versions of the tables the
    statement reads, schema epoch, canonical SQL and parameters.

    ``schema_epoch`` counts schema changes (table, view and index DDL,
    ROLLBACK): a changed schema changes the plan, so cached results
    keyed on the old epoch are never served for the new plan's queries.
    """
    return (
        "sql",
        token,
        database,
        version,
        schema_epoch,
        canonical_sql,
        parameters,
    )


def retrieval_key(
    token: int,
    version: int,
    strategy: str,
    k: int,
    rerank: bool,
    query: str,
) -> tuple:
    """RAG tier: one knowledge base's retrieval results."""
    return ("retrieval", token, version, strategy, k, rerank, query)


def embedding_key(
    dim: int,
    use_bigrams: bool,
    use_char_trigrams: bool,
    tag: tuple,
    text: str,
) -> tuple:
    """RAG tier: one embedded query vector.

    ``tag`` captures whatever weighting context applies (e.g. the IDF
    table's token and document count); the empty tuple means the
    unweighted, purely content-determined embedding.
    """
    return ("embed", dim, use_bigrams, use_char_trigrams, tag, text)
