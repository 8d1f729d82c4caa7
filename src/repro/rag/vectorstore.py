"""Dense vector store with cosine top-k search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.obs.metrics import Histogram, MetricHandle
from repro.runtime import perf_clock

_SEARCH_LATENCY = MetricHandle(
    Histogram, "vectorstore_search_latency_ms", "dense top-k search latency"
)
_SEARCH_CANDIDATES = MetricHandle(
    Histogram, "vectorstore_search_candidates",
    "results returned per dense search", buckets=(0, 1, 2, 5, 10, 20, 50, 100),
)


@dataclass
class VectorHit:
    """One nearest-neighbour result."""

    item_id: str
    score: float
    metadata: dict[str, Any]


class VectorStore:
    """Exact cosine-similarity search over unit vectors.

    Vectors are held in a contiguous matrix rebuilt lazily on first
    search after a mutation, so bulk loading stays O(n).
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._ids: list[str] = []
        #: id -> vector, in ``_ids`` order (dicts keep insertion order).
        self._vectors: dict[str, np.ndarray] = {}
        self._metadata: dict[str, dict[str, Any]] = {}
        #: ``(matrix, row norms)``, one assignment so a concurrent
        #: search never pairs a new matrix with old norms.
        self._matrix: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._metadata

    def add(
        self,
        item_id: str,
        vector: np.ndarray,
        metadata: Optional[dict[str, Any]] = None,
    ) -> None:
        if item_id in self._metadata:
            raise ValueError(f"id {item_id!r} already stored")
        if vector.shape != (self.dim,):
            raise ValueError(
                f"expected shape ({self.dim},), got {vector.shape}"
            )
        self._ids.append(item_id)
        self._vectors[item_id] = np.asarray(vector, dtype=np.float64)
        self._metadata[item_id] = dict(metadata or {})
        self._matrix = None

    def remove(self, item_id: str) -> None:
        if item_id not in self._metadata:
            raise KeyError(item_id)
        self._ids.remove(item_id)
        del self._vectors[item_id]
        del self._metadata[item_id]
        self._matrix = None

    def vector(self, item_id: str) -> Optional[np.ndarray]:
        """The stored vector of ``item_id`` (read-only), if stored."""
        return self._vectors.get(item_id)

    def get_metadata(self, item_id: str) -> dict[str, Any]:
        return self._metadata[item_id]

    def search(self, query: np.ndarray, k: int = 5) -> list[VectorHit]:
        """Top-k items by cosine similarity to ``query``."""
        started = perf_clock()
        hits = self._search(query, k)
        _SEARCH_LATENCY.labels()((perf_clock() - started) * 1000.0)
        _SEARCH_CANDIDATES.labels()(len(hits))
        return hits

    def _search(self, query: np.ndarray, k: int = 5) -> list[VectorHit]:
        if k <= 0:
            raise ValueError("k must be positive")
        if not self._ids:
            return []
        if query.shape != (self.dim,):
            raise ValueError(
                f"expected shape ({self.dim},), got {query.shape}"
            )
        if self._matrix is None:
            stacked = np.stack(list(self._vectors.values()))
            self._matrix = stacked, np.linalg.norm(stacked, axis=1)
        matrix, norms = self._matrix
        query_norm = float(np.linalg.norm(query))
        if query_norm == 0.0:
            return []
        denominators = norms * query_norm
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(
                denominators > 0,
                matrix @ query / denominators,
                0.0,
            )
        count = min(k, len(self._ids))
        top = np.argpartition(-scores, count - 1)[:count]
        top = top[np.argsort(-scores[top], kind="stable")]
        return [
            VectorHit(
                item_id=self._ids[i],
                score=float(scores[i]),
                metadata=self._metadata[self._ids[i]],
            )
            for i in top
        ]
