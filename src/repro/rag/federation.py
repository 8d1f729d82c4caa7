"""Federated retrieval across multiple knowledge bases.

The paper's RAG is "from Multiple Data Sources"; beyond mixing formats
into one store, enterprises keep *separate* stores per source (the wiki
KB, the ticket KB, the schema docs KB). :class:`MultiSourceKnowledge`
queries every registered knowledge base and fuses the rankings with
reciprocal-rank fusion, attributing each hit to its source.
"""

from __future__ import annotations

import asyncio
import contextvars
from dataclasses import dataclass

from repro.obs.tracer import get_tracer
from repro.rag.embedder import QueryEmbeddingMemo
from repro.rag.knowledge_base import KnowledgeBase, RetrievedChunk


class FederationError(Exception):
    """Invalid federation operation."""


@dataclass
class FederatedHit:
    """One fused retrieval result with source attribution."""

    source: str
    chunk: "object"  # repro.rag.document.Chunk
    score: float
    strategy: str


class MultiSourceKnowledge:
    """A named collection of knowledge bases queried as one.

    >>> # federation = MultiSourceKnowledge()
    >>> # federation.register("wiki", wiki_kb)
    >>> # federation.register("tickets", tickets_kb)
    >>> # federation.retrieve("rollout incident", k=5)
    """

    def __init__(
        self, rank_constant: int = 60, fanout_width: int = 4
    ) -> None:
        if fanout_width < 1:
            raise ValueError("fanout_width must be at least 1")
        self._bases: dict[str, KnowledgeBase] = {}
        self._rank_constant = rank_constant
        #: Sources queried concurrently per retrieve; 1 = sequential.
        self._fanout_width = fanout_width

    def register(self, name: str, base: KnowledgeBase) -> None:
        key = name.lower()
        if key in self._bases:
            raise FederationError(f"source {name!r} already registered")
        self._bases[key] = base

    def unregister(self, name: str) -> None:
        if name.lower() not in self._bases:
            raise FederationError(f"no source named {name!r}")
        del self._bases[name.lower()]

    def sources(self) -> list[str]:
        return sorted(self._bases)

    def __len__(self) -> int:
        return sum(len(base) for base in self._bases.values())

    def retrieve(
        self,
        query: str,
        k: int = 5,
        strategy: str = "hybrid",
        sources: list[str] | None = None,
    ) -> list[FederatedHit]:
        """Top-k chunks fused across (a subset of) the sources."""
        if not self._bases:
            raise FederationError("no knowledge bases registered")
        selected = (
            {name.lower() for name in sources}
            if sources is not None
            else set(self._bases)
        )
        unknown = selected - set(self._bases)
        if unknown:
            raise FederationError(
                f"unknown sources: {sorted(unknown)}; "
                f"known: {self.sources()}"
            )
        names = sorted(selected)
        with get_tracer().span(
            "rag.federate", sources=len(names), strategy=strategy
        ) as span:
            results = self._fan_out(names, query, k, strategy)
            span.set_attribute(
                "parallel", len(names) > 1 and self._fanout_width > 1
            )
        # Fusion walks the collected per-source rankings in sorted name
        # order, so the outcome is identical however the fan-out raced.
        fused: dict[tuple[str, str], float] = {}
        found: dict[tuple[str, str], RetrievedChunk] = {}
        for name in names:
            for rank, hit in enumerate(results[name], start=1):
                key = (name, hit.chunk.chunk_id)
                fused[key] = fused.get(key, 0.0) + 1.0 / (
                    self._rank_constant + rank
                )
                found[key] = hit
        ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
        return [
            FederatedHit(
                source=name,
                chunk=found[(name, chunk_id)].chunk,
                score=score,
                strategy=found[(name, chunk_id)].strategy,
            )
            for (name, chunk_id), score in ranked[:k]
        ]

    def _fan_out(
        self, names: list[str], query: str, k: int, strategy: str
    ) -> dict[str, list[RetrievedChunk]]:
        """Query every selected source, concurrently when it pays.

        The fan-out is an ``asyncio.gather`` on the process-shared
        serving loop — no per-retrieve thread pool to spin up and tear
        down; a semaphore caps in-flight sources at ``fanout_width``
        and each source's blocking retrieve runs on the loop's default
        executor. One :class:`QueryEmbeddingMemo` is shared across the
        fan-out so the query's tokenize+hash pass runs once, not once
        per source, and each task runs under its own copy of the
        caller's ``contextvars`` context so every source's
        ``rag.retrieve`` span stays parented to this trace.
        """
        # Function-level import: repro.serving pulls repro.llm, which
        # pulls repro.rag back — importing it at module scope would
        # close that cycle during package init.
        from repro.serving.loop import get_loop_runner

        memo = QueryEmbeddingMemo()

        def run(name: str) -> list[RetrievedChunk]:
            return self._bases[name].retrieve(
                query, k=k, strategy=strategy, embed_memo=memo
            )

        if len(names) == 1 or self._fanout_width == 1:
            return {name: run(name) for name in names}
        # One context copy per task, made in the calling thread: a
        # single Context cannot be entered concurrently, and
        # ``asyncio.to_thread`` on the shared loop would copy the loop
        # thread's context instead of the caller's.
        contexts = {
            name: contextvars.copy_context() for name in names
        }

        async def gather_all() -> dict[str, list[RetrievedChunk]]:
            loop = asyncio.get_running_loop()
            gate = asyncio.Semaphore(
                min(self._fanout_width, len(names))
            )

            async def one(name: str) -> list[RetrievedChunk]:
                async with gate:
                    return await loop.run_in_executor(
                        None, contexts[name].run, run, name
                    )

            results = await asyncio.gather(
                *(one(name) for name in names)
            )
            return dict(zip(names, results))

        return get_loop_runner().run(gather_all())

    def build_context(
        self, query: str, k: int = 5, max_tokens: int = 512
    ):
        """Fused retrieval packed for ICL, with source-tagged chunks."""
        from repro.rag.icl import ContextPacker

        hits = self.retrieve(query, k=k)
        packer = ContextPacker(max_tokens=max_tokens)
        return packer.pack(
            [
                (
                    f"{hit.source}:{hit.chunk.chunk_id}",
                    f"[{hit.source}] {hit.chunk.text}",
                )
                for hit in hits
            ]
        )
