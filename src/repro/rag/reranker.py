"""Second-stage reranking of retrieved chunks."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.rag.embedder import HashingEmbedder, cosine_similarity, tokenize_words
from repro.rag.inverted_index import STOPWORDS
from repro.rag.retriever import RetrievalHit


class OverlapReranker:
    """Blend dense similarity with exact-term overlap.

    Score = ``alpha * cosine(query, chunk) + (1 - alpha) * jaccard``.
    Rerankers improve precision of the final shortlist handed to ICL.
    """

    def __init__(
        self,
        embedder: HashingEmbedder,
        alpha: float = 0.6,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")
        self._embedder = embedder
        self.alpha = alpha

    @staticmethod
    def _content_terms(text: str) -> set[str]:
        return {t for t in tokenize_words(text) if t not in STOPWORDS}

    def rerank(
        self,
        query: str,
        hits: list[RetrievalHit],
        texts: dict[str, str],
        k: int | None = None,
        word_weight: Optional[Callable[[str], float]] = None,
        stored_vector: Callable[[str], Optional[np.ndarray]] = lambda _id: None,
    ) -> list[RetrievalHit]:
        """Re-score ``hits`` against ``query`` using the chunk texts.

        ``word_weight`` is the corpus IDF weighting (the vector
        store's table); without it, boilerplate words dominate the
        dense score and reranking can *hurt*. ``stored_vector`` returns
        a chunk's embedding under that weighting where one is already
        held; a chunk it does not know is embedded here.
        """
        query_vector = self._embedder.embed(query, word_weight=word_weight)
        query_terms = self._content_terms(query)
        rescored = []
        for hit in hits:
            text = texts.get(hit.chunk_id, "")
            vector = stored_vector(hit.chunk_id)
            if vector is None:
                vector = self._embedder.embed(text, word_weight=word_weight)
            dense = cosine_similarity(query_vector, vector)
            chunk_terms = self._content_terms(text)
            union = query_terms | chunk_terms
            jaccard = (
                len(query_terms & chunk_terms) / len(union) if union else 0.0
            )
            score = self.alpha * dense + (1.0 - self.alpha) * jaccard
            rescored.append(
                RetrievalHit(hit.chunk_id, score, f"{hit.strategy}+rerank")
            )
        rescored.sort(key=lambda h: (-h.score, h.chunk_id))
        return rescored[:k] if k is not None else rescored
