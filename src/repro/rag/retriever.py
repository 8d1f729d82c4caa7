"""Retrieval strategies over the three indexes, plus hybrid fusion."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial

from repro.obs.metrics import Histogram, MetricHandle
from repro.obs.tracer import get_tracer
from repro.rag.embedder import HashingEmbedder
from repro.rag.graph_index import GraphIndex
from repro.rag.inverted_index import InvertedIndex
from repro.rag.vectorstore import VectorStore

#: ``status``: ``ok``, or ``error`` when the retrieval raised.
_LATENCY = MetricHandle(
    Histogram, "rag_retrieval_latency_ms", "retrieval latency per strategy",
    ("strategy", "status"),
)
_CANDIDATES = MetricHandle(
    Histogram, "rag_candidates", "candidates returned per retrieval",
    ("strategy",), buckets=(0, 1, 2, 5, 10, 20, 50, 100),
)


@dataclass
class RetrievalHit:
    """One ranked retrieval result (strategy-agnostic)."""

    chunk_id: str
    score: float
    strategy: str


class Retriever(abc.ABC):
    """A ranked-retrieval strategy.

    Concrete strategies implement ``retrieve``; at class-creation time
    it is wrapped in a ``rag.retrieve`` span recording the strategy,
    ``k`` and candidate count, plus latency/candidate metrics — the
    hybrid fuser's sub-strategies therefore show up as nested spans.
    """

    name = "base"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        retrieve = cls.__dict__.get("retrieve")
        if retrieve is not None and not getattr(
            retrieve, "__obs_wrapped__", False
        ):
            cls.retrieve = _traced_retrieve(retrieve)

    @abc.abstractmethod
    def retrieve(self, query: str, k: int = 5) -> list[RetrievalHit]:
        """Return the top-k chunk ids for ``query``."""


def _traced_retrieve(retrieve):
    def wrapped(
        self: "Retriever", query: str, k: int = 5
    ) -> list[RetrievalHit]:
        with get_tracer().span(
            "rag.retrieve",
            partial(_LATENCY.labels, self.name),
            strategy=self.name,
            k=k,
        ) as span:
            hits = retrieve(self, query, k=k)
            span.set_attribute("candidates", len(hits))
        _CANDIDATES.labels(self.name)(len(hits))
        return hits

    wrapped.__obs_wrapped__ = True
    wrapped.__doc__ = retrieve.__doc__
    return wrapped


class EmbeddingRetriever(Retriever):
    """Dense retrieval: cosine similarity in embedding space.

    ``word_weight`` (e.g. a corpus IDF table's weight method) is applied
    to the query embedding so it matches how the stored chunks were
    embedded.
    """

    name = "vector"

    def __init__(
        self,
        store: VectorStore,
        embedder: HashingEmbedder,
        word_weight=None,
        cache_tag=None,
        embed_memo=None,
    ) -> None:
        self._store = store
        self._embedder = embedder
        self._word_weight = word_weight
        #: Weighting-context tag enabling query-embedding caching; see
        #: :meth:`HashingEmbedder.embed_cached`.
        self._cache_tag = cache_tag
        #: Per-query reuse across federated sources; see
        #: :class:`repro.rag.embedder.QueryEmbeddingMemo`.
        self._embed_memo = embed_memo

    def retrieve(self, query: str, k: int = 5) -> list[RetrievalHit]:
        if self._embed_memo is not None:
            vector = self._embed_memo.embed(
                self._embedder,
                query,
                word_weight=self._word_weight,
                cache_tag=self._cache_tag,
            )
        else:
            vector = self._embedder.embed_cached(
                query,
                word_weight=self._word_weight,
                cache_tag=self._cache_tag,
            )
        return [
            RetrievalHit(hit.item_id, hit.score, self.name)
            for hit in self._store.search(vector, k)
        ]


class KeywordRetriever(Retriever):
    """Sparse retrieval: BM25 over the inverted index."""

    name = "keyword"

    def __init__(self, index: InvertedIndex) -> None:
        self._index = index

    def retrieve(self, query: str, k: int = 5) -> list[RetrievalHit]:
        return [
            RetrievalHit(hit.item_id, hit.score, self.name)
            for hit in self._index.search(query, k)
        ]


class GraphRetriever(Retriever):
    """Entity-graph retrieval with one-hop expansion."""

    name = "graph"

    def __init__(self, index: GraphIndex) -> None:
        self._index = index

    def retrieve(self, query: str, k: int = 5) -> list[RetrievalHit]:
        return [
            RetrievalHit(hit.item_id, hit.score, self.name)
            for hit in self._index.search(query, k)
        ]


class HybridRetriever(Retriever):
    """Reciprocal-rank fusion of several strategies.

    RRF score of a chunk is ``sum(weight / (rank_constant + rank))``
    over the strategies that returned it — robust to the incomparable
    score scales of cosine, BM25 and graph counts.
    """

    name = "hybrid"

    def __init__(
        self,
        retrievers: list[Retriever],
        weights: list[float] | None = None,
        rank_constant: int = 60,
    ) -> None:
        if not retrievers:
            raise ValueError("need at least one retriever")
        if weights is None:
            weights = [1.0] * len(retrievers)
        if len(weights) != len(retrievers):
            raise ValueError("weights must match retrievers")
        self._retrievers = retrievers
        self._weights = weights
        self._rank_constant = rank_constant

    def retrieve(self, query: str, k: int = 5) -> list[RetrievalHit]:
        fused: dict[str, float] = {}
        for retriever, weight in zip(self._retrievers, self._weights):
            hits = retriever.retrieve(query, k=max(k * 2, k))
            for rank, hit in enumerate(hits, start=1):
                fused[hit.chunk_id] = fused.get(hit.chunk_id, 0.0) + (
                    weight / (self._rank_constant + rank)
                )
        ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
        return [
            RetrievalHit(chunk_id, score, self.name)
            for chunk_id, score in ranked[:k]
        ]
