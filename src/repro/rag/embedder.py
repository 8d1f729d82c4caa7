"""Deterministic text embedder (neural-encoder substitute).

Feature-hashing of word unigrams, word bigrams and character trigrams
into a fixed-dimension vector, TF-weighted and L2-normalized. Texts that
share vocabulary land near each other in cosine space, which is the
property the retrieval benchmarks depend on. Hashes use zlib.crc32 so
vectors are stable across processes (Python's ``hash`` is randomized).
"""

from __future__ import annotations

import itertools
import math
import re
import threading
import zlib
from typing import Callable, Iterable, Optional

import numpy as np

from repro.cache.keys import embedding_key
from repro.cache.manager import get_cache_manager

_WORD = re.compile(r"[a-z0-9]+|[一-鿿]")

#: Process-unique tokens for IDF tables (see ``repro.cache.keys`` for
#: why ``id()`` is not usable as a cache identity).
_idf_tokens = itertools.count(1)


def tokenize_words(text: str) -> list[str]:
    """Lower-cased word tokens; CJK characters tokenize individually."""
    return _WORD.findall(text.lower())


class HashingEmbedder:
    """Embed text into a ``dim``-dimensional unit vector."""

    def __init__(
        self,
        dim: int = 512,
        use_bigrams: bool = True,
        use_char_trigrams: bool = True,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.use_bigrams = use_bigrams
        self.use_char_trigrams = use_char_trigrams

    def features(self, text: str) -> Iterable[tuple[str, str]]:
        """Yield ``(feature, source_word)`` pairs for ``text``.

        The source word lets callers weight derived features (bigrams,
        character trigrams) by the importance of the word they came from.
        """
        words = tokenize_words(text)
        for word in words:
            yield word, word
        if self.use_bigrams:
            for left, right in zip(words, words[1:]):
                yield f"{left}_{right}", right
        if self.use_char_trigrams:
            for word in words:
                padded = f"^{word}$"
                for i in range(len(padded) - 2):
                    yield f"#{padded[i:i + 3]}", word

    def hashed_features(
        self, text: str
    ) -> list[tuple[int, float, str]]:
        """The tokenize+hash pass of :meth:`embed`, reified.

        Returns ``(index, sign, source_word)`` triples — everything
        about the embedding that does *not* depend on the weighting.
        Federated retrieval runs this pass once per query and applies
        each source's corpus weights to the shared triples
        (:class:`QueryEmbeddingMemo`).
        """
        triples = []
        for feature, word in self.features(text):
            digest = zlib.crc32(feature.encode("utf-8"))
            # Use one spare bit of the hash for the sign, the classic
            # hashing-trick debiasing.
            sign = 1.0 if (digest >> 31) & 1 else -1.0
            triples.append((digest % self.dim, sign, word))
        return triples

    def embed_features(
        self,
        hashed: list[tuple[int, float, str]],
        word_weight: Optional[Callable[[str], float]] = None,
    ) -> np.ndarray:
        """Accumulate precomputed hash triples into a unit vector."""
        vector = np.zeros(self.dim, dtype=np.float64)
        for index, sign, word in hashed:
            weight = 1.0 if word_weight is None else word_weight(word)
            if weight == 0.0:
                continue
            vector[index] += sign * weight
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        return vector

    def embed(
        self,
        text: str,
        word_weight: Optional[Callable[[str], float]] = None,
    ) -> np.ndarray:
        """Embed one text; empty text maps to the zero vector.

        ``word_weight`` scales each feature's contribution by the weight
        of its source word (e.g. corpus IDF); default weight is 1.
        """
        return self.embed_features(self.hashed_features(text), word_weight)

    def embed_cached(
        self,
        text: str,
        word_weight: Optional[Callable[[str], float]] = None,
        cache_tag: Optional[tuple] = None,
    ) -> np.ndarray:
        """Embed ``text``, consulting the RAG cache tier when safe.

        Safe means the result is fully determined by the key: either no
        ``word_weight`` applies (the embedding is a pure function of
        the text and this embedder's shape), or the caller passes a
        ``cache_tag`` capturing the weighting context — e.g. the IDF
        table's token and document count — so a corpus change retires
        the entry. Weighted calls without a tag fall back to
        :meth:`embed` uncached. Returned vectors are shared across
        hits; callers must treat them as read-only.
        """
        if word_weight is not None and cache_tag is None:
            return self.embed(text, word_weight)
        key = embedding_key(
            self.dim,
            self.use_bigrams,
            self.use_char_trigrams,
            cache_tag or (),
            text,
        )
        return get_cache_manager().cached(
            "rag", key, lambda: self.embed(text, word_weight)
        )

    def embed_batch(
        self,
        texts: list[str],
        word_weight: Optional[Callable[[str], float]] = None,
    ) -> np.ndarray:
        """Embed many texts into an (n, dim) matrix.

        Duplicate texts are embedded once and share their row, so bulk
        ingestion of repetitive corpora pays per *distinct* text.
        """
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        unique: dict[str, np.ndarray] = {}
        for text in texts:
            if text not in unique:
                unique[text] = self.embed(text, word_weight)
        return np.stack([unique[text] for text in texts])


class QueryEmbeddingMemo:
    """Reuse one query's embedding work across federated sources.

    Federated retrieval embeds the same query once per knowledge base.
    The tokenize+hash pass (:meth:`HashingEmbedder.hashed_features`) is
    identical everywhere — only each source's IDF weighting differs —
    so a memo threaded through the fan-out runs that pass once and
    re-weights the shared triples per source; same-weighting vectors
    (keyed by cache tag, or by the weight callable itself) are shared
    outright. Thread-safe so parallel fan-out workers can share one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._features: dict[tuple, list] = {}
        self._vectors: dict[tuple, np.ndarray] = {}

    def embed(
        self,
        embedder: "HashingEmbedder",
        text: str,
        word_weight: Optional[Callable[[str], float]] = None,
        cache_tag: Optional[tuple] = None,
    ) -> np.ndarray:
        shape = (
            embedder.dim,
            embedder.use_bigrams,
            embedder.use_char_trigrams,
        )
        weight_key = (
            None
            if word_weight is None
            else cache_tag
            if cache_tag is not None
            else word_weight
        )
        vector_key = (shape, weight_key, text)
        with self._lock:
            vector = self._vectors.get(vector_key)
            hashed = self._features.get((shape, text))
        if vector is not None:
            return vector
        if hashed is None:
            hashed = embedder.hashed_features(text)
        vector = embedder.embed_features(hashed, word_weight)
        # A racing thread may have stored the same (deterministic)
        # values already; last write wins harmlessly.
        with self._lock:
            self._features[(shape, text)] = hashed
            self._vectors[vector_key] = vector
        return vector


class IdfTable:
    """Document-frequency table providing IDF word weights.

    Feeding every indexed chunk through :meth:`add_document` lets the
    embedder down-weight boilerplate words shared by the whole corpus —
    the standard TF-IDF move, applied inside the hashing embedder.
    """

    def __init__(self) -> None:
        self._df: dict[str, int] = {}
        self._documents = 0
        self._cache_token = next(_idf_tokens)

    @property
    def documents(self) -> int:
        return self._documents

    def cache_tag(self) -> tuple:
        """Identity + version tuple for embedding cache keys: entries
        minted before :meth:`add_document` changed the weights are
        automatically retired."""
        return ("idf", self._cache_token, self._documents)

    def add_document(self, text: str) -> None:
        self._documents += 1
        for word in set(tokenize_words(text)):
            self._df[word] = self._df.get(word, 0) + 1

    def weight(self, word: str) -> float:
        """IDF weight; unseen words get the maximum weight."""
        if self._documents == 0:
            return 1.0
        df = self._df.get(word, 0)
        return math.log(1.0 + self._documents / (1.0 + df))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0 if either is zero)."""
    denominator = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(a, b) / denominator)
