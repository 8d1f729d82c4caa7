"""The knowledge base: construction + retrieval + ICL assembly.

This is the facade the applications use; it wires together the
splitter, the three indexes, the retrieval strategies, the reranker,
the context packer and the privacy scrubber into the paper's Figure 2
pipeline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.cache.keys import instance_token, retrieval_key
from repro.cache.manager import get_cache_manager
from repro.fileio import write_text_atomic
from repro.rag.document import Chunk, Document
from repro.rag.embedder import HashingEmbedder
from repro.rag.graph_index import GraphIndex
from repro.rag.icl import ContextPacker, PackedContext
from repro.rag.inverted_index import InvertedIndex
from repro.rag.loaders import Loader
from repro.rag.privacy import PrivacyScrubber
from repro.rag.reranker import OverlapReranker
from repro.rag.retriever import (
    EmbeddingRetriever,
    GraphRetriever,
    HybridRetriever,
    KeywordRetriever,
    RetrievalHit,
    Retriever,
)
from repro.rag.splitter import ParagraphSplitter, Splitter


@dataclass
class RetrievedChunk:
    """A retrieval result with its text resolved."""

    chunk: Chunk
    score: float
    strategy: str


class KnowledgeBase:
    """Multi-index knowledge store with pluggable retrieval strategies.

    >>> kb = KnowledgeBase(name="docs")
    >>> kb.add_document(Document("d1", "PostgreSQL uses MVCC for isolation."))
    >>> kb.retrieve("How does PostgreSQL isolation work?", k=1)[0].chunk.doc_id
    'd1'
    """

    STRATEGIES = ("vector", "keyword", "graph", "hybrid")

    def __init__(
        self,
        name: str = "knowledge",
        splitter: Optional[Splitter] = None,
        embedder: Optional[HashingEmbedder] = None,
        scrubber: Optional[PrivacyScrubber] = None,
    ) -> None:
        self.name = name
        self._splitter = splitter or ParagraphSplitter()
        self._embedder = embedder or HashingEmbedder()
        self._scrubber = scrubber
        self._vector_store = VectorStoreHolder(self._embedder)
        self._inverted = InvertedIndex()
        self._graph = GraphIndex()
        self._chunks: dict[str, Chunk] = {}
        self._reranker = OverlapReranker(self._embedder)
        #: Mutation counter embedded in retrieval cache keys — every
        #: indexed chunk retires previously cached results.
        self._version = 0
        self._cache_token = instance_token()

    # -- construction ------------------------------------------------------

    def add_document(
        self,
        document: Document,
        entities: Optional[Iterable[str]] = None,
    ) -> list[Chunk]:
        """Segment, scrub and index one document; returns its chunks."""
        if self._scrubber is not None:
            scrubbed = self._scrubber.scrub(document.text)
            document = Document(
                document.doc_id, scrubbed.text, dict(document.metadata)
            )
        chunks = self._splitter.split(document)
        for chunk in chunks:
            self.add_chunk(chunk, entities=entities)
        return chunks

    def add_chunk(
        self,
        chunk: Chunk,
        entities: Optional[Iterable[str]] = None,
    ) -> None:
        """Index one pre-built chunk (used by loaders and persistence)."""
        if chunk.chunk_id in self._chunks:
            raise ValueError(
                f"chunk id {chunk.chunk_id!r} already indexed"
            )
        self._version += 1
        self._chunks[chunk.chunk_id] = chunk
        self._vector_store.add(chunk)
        self._inverted.add(chunk.chunk_id, chunk.text)
        self._graph.add(
            chunk.chunk_id,
            chunk.text,
            entities=list(entities) if entities is not None else None,
        )

    def add_documents(self, documents: Iterable[Document]) -> int:
        count = 0
        for document in documents:
            count += len(self.add_document(document))
        return count

    def load(self, loader: Loader) -> int:
        """Construct knowledge from a loader (one of the data sources)."""
        return self.add_documents(loader.load())

    def __len__(self) -> int:
        return len(self._chunks)

    def chunk(self, chunk_id: str) -> Chunk:
        return self._chunks[chunk_id]

    # -- retrieval ---------------------------------------------------------

    def retriever(
        self, strategy: str = "hybrid", embed_memo=None
    ) -> Retriever:
        """Build the retriever implementing ``strategy``.

        ``embed_memo`` (a :class:`QueryEmbeddingMemo`) lets federated
        retrieval share one query's hash pass across sources.
        """
        if strategy == "vector":
            return self._vector_store.make_retriever(embed_memo=embed_memo)
        if strategy == "keyword":
            return KeywordRetriever(self._inverted)
        if strategy == "graph":
            return GraphRetriever(self._graph)
        if strategy == "hybrid":
            return HybridRetriever(
                [
                    self._vector_store.make_retriever(embed_memo=embed_memo),
                    KeywordRetriever(self._inverted),
                    GraphRetriever(self._graph),
                ]
            )
        raise ValueError(
            f"unknown strategy {strategy!r}; known: {self.STRATEGIES}"
        )

    def retrieve(
        self,
        query: str,
        k: int = 5,
        strategy: str = "hybrid",
        rerank: bool = False,
        embed_memo=None,
    ) -> list[RetrievedChunk]:
        """Top-k chunks for ``query`` under the chosen strategy.

        Results are served from the RAG cache tier, keyed on this
        knowledge base's identity and mutation version — indexing a new
        document retires every cached result. The ``embed_memo`` only
        changes *how* the query embedding is computed, never the
        result, so it stays out of the key.
        """
        key = retrieval_key(
            self._cache_token, self._version, strategy, k, rerank, query
        )
        frozen = get_cache_manager().cached(
            "rag",
            key,
            lambda: tuple(
                (r.chunk.chunk_id, r.score, r.strategy)
                for r in self._retrieve_direct(
                    query, k, strategy, rerank, embed_memo
                )
            ),
        )
        return [
            RetrievedChunk(self._chunks[chunk_id], score, strategy_name)
            for chunk_id, score, strategy_name in frozen
        ]

    def _retrieve_direct(
        self,
        query: str,
        k: int,
        strategy: str,
        rerank: bool,
        embed_memo=None,
    ) -> list[RetrievedChunk]:
        hits = self.retriever(strategy, embed_memo=embed_memo).retrieve(
            query, k=k * 2 if rerank else k
        )
        if rerank:
            texts = {
                hit.chunk_id: self._chunks[hit.chunk_id].text for hit in hits
            }
            # The refreshed store's vectors share the IDF snapshot the
            # reranker would embed each candidate under again.
            hits = self._reranker.rerank(
                query,
                hits,
                texts,
                k=k,
                word_weight=self._vector_store.idf_weight,
                stored_vector=self._vector_store._refresh().vector,
            )
        return [
            RetrievedChunk(
                chunk=self._chunks[hit.chunk_id],
                score=hit.score,
                strategy=hit.strategy,
            )
            for hit in hits[:k]
        ]

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Persist the knowledge base to a JSON file.

        Chunks and their entity links are stored; the three indexes are
        deterministic functions of them and are rebuilt on load.
        """
        import json

        payload = []
        for chunk in self._chunks.values():
            entities = [
                neighbor_entity
                for _kind, neighbor_entity in self._graph._graph.neighbors(
                    ("chunk", chunk.chunk_id)
                )
            ]
            payload.append(
                {
                    "chunk_id": chunk.chunk_id,
                    "doc_id": chunk.doc_id,
                    "text": chunk.text,
                    "position": chunk.position,
                    "metadata": chunk.metadata,
                    "entities": sorted(entities),
                }
            )
        write_text_atomic(
            path,
            json.dumps({"name": self.name, "chunks": payload},
                       ensure_ascii=False),
        )

    @classmethod
    def load_file(cls, path, **kwargs) -> "KnowledgeBase":
        """Rebuild a knowledge base saved with :meth:`save`."""
        import json
        import pathlib

        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        kb = cls(name=payload.get("name", "knowledge"), **kwargs)
        for item in payload["chunks"]:
            kb.add_chunk(
                Chunk(
                    chunk_id=item["chunk_id"],
                    doc_id=item["doc_id"],
                    text=item["text"],
                    position=item.get("position", 0),
                    metadata=item.get("metadata", {}),
                ),
                entities=item.get("entities"),
            )
        return kb

    # -- ICL assembly ------------------------------------------------------

    def build_context(
        self,
        query: str,
        k: int = 5,
        strategy: str = "hybrid",
        max_tokens: int = 512,
        rerank: bool = True,
    ) -> PackedContext:
        """Retrieve then pack context for a prompt, best-first."""
        retrieved = self.retrieve(query, k=k, strategy=strategy, rerank=rerank)
        packer = ContextPacker(max_tokens=max_tokens)
        return packer.pack(
            [(r.chunk.chunk_id, r.chunk.text) for r in retrieved]
        )


class VectorStoreHolder:
    """Couples a vector store with the embedder and a corpus IDF table.

    Every add updates the IDF table and marks stored vectors stale; the
    store is rebuilt with current IDF weights lazily, before the first
    search after a mutation. Corpora here are laptop-sized, so the
    rebuild keeps semantics simple (all vectors always share one IDF
    snapshot) at negligible cost.
    """

    def __init__(self, embedder: HashingEmbedder) -> None:
        from repro.rag.embedder import IdfTable
        from repro.rag.vectorstore import VectorStore

        self.store = VectorStore(embedder.dim)
        self._embedder = embedder
        self._idf = IdfTable()
        #: Guards the IDF table, both chunk lists and the store swap:
        #: concurrent first searches must rebuild once, not race.
        self._lock = threading.Lock()
        self._pending: list[Chunk] = []
        self._all_chunks: list[Chunk] = []

    def add(self, chunk: Chunk) -> None:
        with self._lock:
            self._idf.add_document(chunk.text)
            self._pending.append(chunk)
            self._all_chunks.append(chunk)

    @property
    def idf_weight(self):
        return self._idf.weight

    def make_retriever(self, embed_memo=None) -> EmbeddingRetriever:
        return EmbeddingRetriever(
            self._refresh(),
            self._embedder,
            word_weight=self._idf.weight,
            cache_tag=self._idf.cache_tag(),
            embed_memo=embed_memo,
        )

    def _refresh(self):
        """The store with every added chunk indexed under current IDF."""
        from repro.rag.vectorstore import VectorStore

        with self._lock:
            if not self._pending:
                return self.store
            # IDF weights changed for every stored vector; rebuild all
            # in one batch pass (duplicate chunk texts embed once) into
            # a local store, swapped in last so a concurrent search
            # sees the old store or the new one, never a partial one.
            store = VectorStore(self._embedder.dim)
            matrix = self._embedder.embed_batch(
                [chunk.text for chunk in self._all_chunks],
                word_weight=self._idf.weight,
            )
            for chunk, vector in zip(self._all_chunks, matrix):
                store.add(
                    chunk.chunk_id,
                    vector,
                    metadata={"doc_id": chunk.doc_id},
                )
            self.store = store
            self._pending = []
            return store
