"""Tests for the embedder, vector store, inverted index and graph index."""

import numpy as np
import pytest

from repro.rag.embedder import (
    HashingEmbedder,
    IdfTable,
    cosine_similarity,
    tokenize_words,
)
from repro.rag.graph_index import GraphIndex, extract_entities
from repro.rag.inverted_index import InvertedIndex
from repro.rag.vectorstore import VectorStore


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize_words("Hello, World-42!") == ["hello", "world", "42"]

    def test_cjk_tokenizes_per_character(self):
        assert tokenize_words("员工数") == ["员", "工", "数"]

    def test_empty(self):
        assert tokenize_words("") == []


class TestHashingEmbedder:
    def test_unit_norm(self):
        embedder = HashingEmbedder(dim=128)
        vector = embedder.embed("some text here")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        embedder = HashingEmbedder(dim=64)
        assert np.allclose(embedder.embed(""), 0.0)

    def test_deterministic(self):
        embedder = HashingEmbedder()
        a = embedder.embed("transaction isolation level")
        b = embedder.embed("transaction isolation level")
        assert np.array_equal(a, b)

    def test_similar_texts_closer_than_different(self):
        embedder = HashingEmbedder()
        query = embedder.embed("database index performance tuning")
        close = embedder.embed("tuning the performance of a database index")
        far = embedder.embed("recipe for chocolate cake with vanilla")
        assert cosine_similarity(query, close) > cosine_similarity(query, far)

    def test_word_weight_zero_removes_contribution(self):
        embedder = HashingEmbedder(dim=64)
        weighted = embedder.embed(
            "alpha beta", word_weight=lambda w: 0.0 if w == "beta" else 1.0
        )
        only_alpha = embedder.embed("alpha")
        assert cosine_similarity(weighted, only_alpha) == pytest.approx(1.0)

    def test_batch_shape(self):
        embedder = HashingEmbedder(dim=32)
        matrix = embedder.embed_batch(["a b", "c d", "e f"])
        assert matrix.shape == (3, 32)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)


class TestIdfTable:
    def test_common_word_weighted_below_rare(self):
        table = IdfTable()
        for i in range(10):
            table.add_document(f"common word document {i}")
        table.add_document("rare unicorn")
        assert table.weight("unicorn") > table.weight("common")

    def test_unseen_word_gets_max_weight(self):
        table = IdfTable()
        table.add_document("a b c")
        assert table.weight("zzz") >= table.weight("a")

    def test_empty_table_neutral(self):
        assert IdfTable().weight("anything") == 1.0


class TestVectorStore:
    def make_store(self):
        store = VectorStore(dim=4)
        store.add("a", np.array([1.0, 0, 0, 0]), {"tag": "x"})
        store.add("b", np.array([0, 1.0, 0, 0]))
        store.add("c", np.array([0.9, 0.1, 0, 0]))
        return store

    def test_top_k_order(self):
        store = self.make_store()
        hits = store.search(np.array([1.0, 0, 0, 0]), k=2)
        assert [h.item_id for h in hits] == ["a", "c"]

    def test_scores_descending(self):
        store = self.make_store()
        hits = store.search(np.array([0.5, 0.5, 0, 0]), k=3)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_store(self):
        store = self.make_store()
        assert len(store.search(np.array([1.0, 0, 0, 0]), k=10)) == 3

    def test_duplicate_id_rejected(self):
        store = self.make_store()
        with pytest.raises(ValueError):
            store.add("a", np.zeros(4))

    def test_wrong_dim_rejected(self):
        store = self.make_store()
        with pytest.raises(ValueError):
            store.add("d", np.zeros(3))
        with pytest.raises(ValueError):
            store.search(np.zeros(3), k=1)

    def test_remove(self):
        store = self.make_store()
        store.remove("a")
        assert "a" not in store
        assert len(store) == 2

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            self.make_store().remove("zzz")

    def test_zero_query_returns_empty(self):
        store = self.make_store()
        assert store.search(np.zeros(4), k=2) == []

    def test_metadata_round_trip(self):
        store = self.make_store()
        assert store.get_metadata("a") == {"tag": "x"}

    def test_empty_store_search(self):
        assert VectorStore(4).search(np.ones(4), k=1) == []

    def test_mutation_after_search_rebuilds(self):
        store = self.make_store()
        store.search(np.array([1.0, 0, 0, 0]), k=1)
        store.add("d", np.array([0.95, 0, 0, 0]))
        hits = store.search(np.array([1.0, 0, 0, 0]), k=2)
        assert {h.item_id for h in hits} == {"a", "d"}

    def test_cached_norms_follow_a_removal(self):
        # An unnormalised row: its norm, kept with the matrix, must not
        # outlive the row.
        store = self.make_store()
        store.add("long", np.array([0, 0, 3.0, 4.0]))
        query = np.array([0.5, 0, 0.5, 0])
        first = store.search(query, k=4)
        store.remove("a")
        again = store.search(query, k=4)
        assert [h.item_id for h in again] == [
            h.item_id for h in first if h.item_id != "a"
        ]
        scores = {h.item_id: h.score for h in first}
        assert all(h.score == scores[h.item_id] for h in again)

    def test_vector_by_id(self):
        store = self.make_store()
        assert store.vector("c").tolist() == [0.9, 0.1, 0, 0]
        assert store.vector("zzz") is None
        store.remove("c")
        assert store.vector("c") is None
        assert store.vector("b").tolist() == [0, 1.0, 0, 0]


class TestInvertedIndex:
    def make_index(self):
        index = InvertedIndex()
        index.add("doc1", "the quick brown fox jumps")
        index.add("doc2", "the lazy dog sleeps all day")
        index.add("doc3", "a fox and a dog play together")
        return index

    def test_exact_term_match(self):
        index = self.make_index()
        hits = index.search("brown fox", k=2)
        assert hits[0].item_id == "doc1"

    def test_rare_term_outranks_common(self):
        index = InvertedIndex()
        for i in range(5):
            index.add(f"common{i}", "shared shared shared topic")
        index.add("special", "shared unicorn")
        hits = index.search("unicorn", k=1)
        assert hits[0].item_id == "special"

    def test_stopwords_ignored(self):
        index = self.make_index()
        assert index.search("the and of", k=3) == []

    def test_no_match_empty(self):
        index = self.make_index()
        assert index.search("zebra", k=3) == []

    def test_duplicate_id_rejected(self):
        index = self.make_index()
        with pytest.raises(ValueError):
            index.add("doc1", "again")

    def test_remove(self):
        index = self.make_index()
        index.remove("doc1")
        assert "doc1" not in index
        assert index.search("brown", k=3) == []

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            self.make_index().remove("zzz")

    def test_scores_positive_and_sorted(self):
        index = self.make_index()
        hits = index.search("fox dog", k=3)
        assert all(h.score > 0 for h in hits)
        assert [h.score for h in hits] == sorted(
            (h.score for h in hits), reverse=True
        )

    def test_idf_zero_for_missing_term(self):
        assert self.make_index().idf("zebra") == 0.0


class TestGraphIndex:
    def make_index(self):
        index = GraphIndex()
        index.add("c1", "notes", entities=["PostgreSQL", "MySQL"])
        index.add("c2", "notes", entities=["PostgreSQL"])
        index.add("c3", "notes", entities=["DuckDB"])
        return index

    def test_direct_entity_match(self):
        index = self.make_index()
        hits = index.search("tell me about postgresql", k=3)
        ids = [h.item_id for h in hits]
        assert ids[0] in ("c1", "c2")
        assert set(ids[:2]) == {"c1", "c2"}

    def test_one_hop_expansion(self):
        index = self.make_index()
        # Query mentions MySQL; c1 has it; c2 shares PostgreSQL with c1.
        hits = index.search("anything on mysql?", k=3)
        ids = [h.item_id for h in hits]
        assert "c1" in ids
        assert "c2" in ids  # reached via the shared PostgreSQL entity
        assert "c3" not in ids

    def test_no_entity_match(self):
        index = self.make_index()
        assert index.search("completely unrelated", k=3) == []

    def test_entity_extraction(self):
        entities = extract_entities(
            "The database PostgreSQL scales. We prefer DuckDB here."
        )
        assert "PostgreSQL" in entities
        assert "DuckDB" in entities

    def test_sentence_initial_word_not_entity(self):
        entities = extract_entities("Hello world. This is fine.")
        assert "Hello" not in entities

    def test_duplicate_id_rejected(self):
        index = self.make_index()
        with pytest.raises(ValueError):
            index.add("c1", "again", entities=["X"])

    def test_chunks_for_entity(self):
        index = self.make_index()
        assert index.chunks_for_entity("PostgreSQL") == {"c1", "c2"}

    def test_via_reports_matched_entities(self):
        index = self.make_index()
        hits = index.search("postgresql", k=3)
        direct = [h for h in hits if h.item_id == "c2"][0]
        assert "postgresql" in direct.via
