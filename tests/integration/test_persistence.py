"""Tests for knowledge-base and adapter persistence round trips."""

import os

import pytest

from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.datasets import build_corpus, build_spider_database
from repro.datasets.spider import Text2SqlExample
from repro.datasources import EngineSource
from repro.hub import FineTuner, LexiconAdapter, Text2SqlDataset, evaluate_model
from repro.llm import SqlCoderModel
from repro.nlu import SchemaIndex
from repro.obs.export import dump_spans, load_spans
from repro.obs.span import Span
from repro.rag import Document, KnowledgeBase, PrivacyScrubber


def _save_memory(path, size):
    memory = AgentMemory(path)  # reloads what is already there
    while len(memory) < size:
        memory.append(AgentMessage("planner", "coder", f"m{len(memory)}"))


def _save_kb(path, size):
    kb = KnowledgeBase()
    for index in range(size):
        kb.add_document(Document(f"d{index}", f"document number {index}"))
    kb.save(path)


def _save_adapter(path, size):
    adapter = LexiconAdapter("a")
    for index in range(size):
        adapter.lexicon.add_synonym(f"phrase{index}", "table", "orders")
    adapter.save(path)


#: name -> (write ``size`` items to path, reload and count them).
_WRITERS = {
    "agent_memory": (_save_memory, lambda path: len(AgentMemory(path))),
    "knowledge_base": (
        _save_kb, lambda path: len(KnowledgeBase.load_file(path))
    ),
    "spans": (
        lambda path, size: dump_spans(
            [Span(f"s{i}", "t", i) for i in range(size)], path
        ),
        lambda path: len(load_spans(path)),
    ),
    "dataset": (
        lambda path, size: Text2SqlDataset(
            "d", [Text2SqlExample("q", "SELECT 1", "d")] * size, []
        ).save(path),
        lambda path: len(Text2SqlDataset.load(path).train),
    ),
    "adapter": (_save_adapter, lambda path: len(LexiconAdapter.load(path))),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_write_killed_part_way_leaves_the_previous_file(
    name, tmp_path, monkeypatch
):
    save, count = _WRITERS[name]
    path = tmp_path / "state.json"
    save(path, 2)

    def killed(fd):
        raise OSError("killed before the new bytes were durable")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", killed)
        with pytest.raises(OSError, match="killed"):
            save(path, 3)
    assert count(path) == 2
    assert os.listdir(tmp_path) == ["state.json"]  # no temp file left


class TestKnowledgeBasePersistence:
    def build_kb(self):
        corpus = build_corpus(seed=5, docs_per_topic=3, queries_per_topic=2)
        kb = KnowledgeBase(name="persist-kb")
        for doc_id, text in corpus.documents.items():
            kb.add_document(
                Document(doc_id, text),
                entities=corpus.doc_entities[doc_id],
            )
        return corpus, kb

    def test_round_trip_preserves_chunks(self, tmp_path):
        _corpus, kb = self.build_kb()
        path = tmp_path / "kb.json"
        kb.save(path)
        restored = KnowledgeBase.load_file(path)
        assert len(restored) == len(kb)
        assert restored.name == "persist-kb"

    def test_restored_retrieval_matches_original(self, tmp_path):
        corpus, kb = self.build_kb()
        path = tmp_path / "kb.json"
        kb.save(path)
        restored = KnowledgeBase.load_file(path)
        for case in corpus.queries:
            for strategy in ("vector", "keyword", "graph", "hybrid"):
                original = [
                    h.chunk.chunk_id
                    for h in kb.retrieve(case.query, k=4, strategy=strategy)
                ]
                revived = [
                    h.chunk.chunk_id
                    for h in restored.retrieve(
                        case.query, k=4, strategy=strategy
                    )
                ]
                assert original == revived, (case.query, strategy)

    def test_metadata_round_trips(self, tmp_path):
        kb = KnowledgeBase()
        kb.add_document(
            Document("d1", "some text", metadata={"source": "unit"})
        )
        path = tmp_path / "kb.json"
        kb.save(path)
        restored = KnowledgeBase.load_file(path)
        chunk = restored.retrieve("some text", k=1, strategy="keyword")[0].chunk
        assert chunk.metadata["source"] == "unit"

    def test_restored_kb_accepts_new_documents(self, tmp_path):
        _corpus, kb = self.build_kb()
        path = tmp_path / "kb.json"
        kb.save(path)
        restored = KnowledgeBase.load_file(path)
        restored.add_document(Document("fresh", "brand new facts"))
        hits = restored.retrieve("brand new facts", k=1, strategy="keyword")
        assert hits[0].chunk.doc_id == "fresh"


class TestAdapterPersistence:
    def test_round_trip_preserves_accuracy(self, tmp_path):
        domain = "retail"
        db = build_spider_database(domain)
        source = EngineSource(db)
        index = SchemaIndex.from_source(source)
        dataset = Text2SqlDataset.from_domain(
            domain, n_train=60, n_test=25, seed=4
        )
        adapter, _report = FineTuner(index, db).fit(
            dataset.train, domain=domain
        )
        path = tmp_path / "adapter.json"
        adapter.save(path)
        restored = LexiconAdapter.load(path)
        assert restored.name == adapter.name
        assert len(restored) == len(adapter)

        base = SqlCoderModel("base")
        original_accuracy = evaluate_model(
            adapter.apply_to(base), source, db, dataset.test
        ).execution_accuracy
        restored_accuracy = evaluate_model(
            restored.apply_to(base), source, db, dataset.test
        ).execution_accuracy
        assert restored_accuracy == original_accuracy

    def test_entries_preserved_exactly(self, tmp_path):
        adapter = LexiconAdapter("t")
        adapter.lexicon.add_synonym(
            "clients", "table", "customers", weight=0.9
        )
        adapter.lexicon.add_synonym(
            "spend", "column", "cost", table="purchases", weight=0.8
        )
        path = tmp_path / "adapter.json"
        adapter.save(path)
        restored = LexiconAdapter.load(path)
        entry = restored.lexicon.lookup("spend")[0]
        assert entry.target == "cost"
        assert entry.table == "purchases"
        assert entry.weight == 0.8
