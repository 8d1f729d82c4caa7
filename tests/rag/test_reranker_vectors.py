"""Reranking reads each candidate's vector from the refreshed store
instead of embedding the chunk again; the ranking must be the one a
re-embedding reranker produces, under whichever IDF snapshot is live.
"""

import pytest

from repro.cache.manager import get_cache_manager
from repro.datasets import build_corpus
from repro.rag import Document, KnowledgeBase
from repro.rag.reranker import OverlapReranker

K = 5


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=3, docs_per_topic=50, queries_per_topic=6)


def build_kb(corpus) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_documents(
        Document(doc_id, text) for doc_id, text in corpus.documents.items()
    )
    return kb


def reembedding_reference(kb, query):
    """Today's candidates, re-scored by embedding every chunk text."""
    hits = kb.retriever("hybrid").retrieve(query, k=2 * K)
    texts = {hit.chunk_id: kb.chunk(hit.chunk_id).text for hit in hits}
    return OverlapReranker(kb._embedder).rerank(
        query, hits, texts, k=K, word_weight=kb._vector_store.idf_weight
    )


def assert_same_ranking(kb, queries):
    for query in queries:
        served = kb.retrieve(query, k=K, rerank=True)
        expected = reembedding_reference(kb, query)
        assert [r.chunk.chunk_id for r in served] == [
            hit.chunk_id for hit in expected
        ]
        for result, hit in zip(served, expected):
            assert result.score == pytest.approx(hit.score, abs=1e-12)
            assert result.strategy == hit.strategy


def test_stored_vectors_rank_like_reembedding(corpus):
    assert len(corpus.documents) == 200
    kb = build_kb(corpus)
    queries = [case.query for case in corpus.queries]
    assert_same_ranking(kb, queries)
    # A new document moves every IDF weight: the store is rebuilt under
    # the new snapshot and the reranker must follow it.
    kb.add_document(
        Document("late", "The index in the planner matters because of cost.")
    )
    assert_same_ranking(kb, queries)


def test_only_the_query_is_embedded(corpus, monkeypatch):
    kb = build_kb(corpus)
    query = corpus.queries[0].query
    kb.retrieve(query, k=K, rerank=True)  # builds the store
    embedded = []
    embed = kb._embedder.embed

    def spy(text, word_weight=None):
        embedded.append(text)
        return embed(text, word_weight)

    monkeypatch.setattr(kb._embedder, "embed", spy)
    # Drop the cached result and query embedding so the retrieval
    # runs again; the chunks come from the built store.
    get_cache_manager().clear("rag")
    assert len(kb.retrieve(query, k=K, rerank=True)) == K
    assert set(embedded) == {query}


def test_a_chunk_the_store_lacks_is_embedded(corpus):
    kb = build_kb(corpus)
    query = corpus.queries[0].query
    hits = kb.retriever("hybrid").retrieve(query, k=2 * K)
    texts = {hit.chunk_id: kb.chunk(hit.chunk_id).text for hit in hits}
    weight = kb._vector_store.idf_weight
    reranker = OverlapReranker(kb._embedder)
    store = kb._vector_store._refresh()
    missing = hits[0].chunk_id

    def partial_store(chunk_id):
        return None if chunk_id == missing else store.vector(chunk_id)

    assert reranker.rerank(
        query, hits, texts, word_weight=weight, stored_vector=partial_store
    ) == reranker.rerank(query, hits, texts, word_weight=weight)
