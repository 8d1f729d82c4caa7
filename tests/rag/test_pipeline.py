"""Tests for splitters, loaders, retrievers, KB, ICL and privacy."""

import sys
import threading

import pytest

from repro.rag import (
    ContextPacker,
    Document,
    FixedSizeSplitter,
    HybridRetriever,
    KnowledgeBase,
    ParagraphSplitter,
    PrivacyScrubber,
    PromptTemplate,
    SentenceSplitter,
)
from repro.rag.icl import DEFAULT_TEMPLATES, estimate_tokens
from repro.rag.loaders import (
    CsvLoader,
    DirectoryLoader,
    LoaderError,
    MarkdownLoader,
    TextLoader,
)
from repro.rag.reranker import OverlapReranker
from repro.rag.embedder import HashingEmbedder
from repro.rag.retriever import RetrievalHit


class TestSplitters:
    def test_paragraph_split(self):
        doc = Document("d", "first para\n\nsecond para\n\n\nthird")
        chunks = ParagraphSplitter().split(doc)
        assert [c.text for c in chunks] == ["first para", "second para", "third"]
        assert [c.position for c in chunks] == [0, 1, 2]

    def test_paragraph_merge_short(self):
        doc = Document("d", "ab\n\ncd\n\na much longer paragraph here")
        chunks = ParagraphSplitter(min_chars=6).split(doc)
        assert len(chunks) == 2
        assert "ab" in chunks[0].text and "cd" in chunks[0].text

    def test_sentence_split_respects_max(self):
        text = "One sentence. " * 20
        chunks = SentenceSplitter(max_chars=60).split(Document("d", text))
        assert all(len(c.text) <= 60 for c in chunks)
        assert len(chunks) > 1

    def test_sentence_split_cjk_punctuation(self):
        chunks = SentenceSplitter(max_chars=10).split(
            Document("d", "你好。 世界很大。 再见。")
        )
        assert len(chunks) >= 2

    def test_fixed_size_overlap(self):
        text = "abcdefghij" * 10
        chunks = FixedSizeSplitter(size=30, overlap=10).split(Document("d", text))
        assert chunks[0].text[-10:] == chunks[1].text[:10]

    def test_fixed_size_reassembly_covers_text(self):
        text = "xyz" * 40
        splitter = FixedSizeSplitter(size=25, overlap=5)
        chunks = splitter.split(Document("d", text))
        rebuilt = chunks[0].text
        for chunk in chunks[1:]:
            rebuilt += chunk.text[splitter.overlap:]
        assert rebuilt == text

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FixedSizeSplitter(size=10, overlap=10)
        with pytest.raises(ValueError):
            SentenceSplitter(max_chars=0)
        with pytest.raises(ValueError):
            ParagraphSplitter(min_chars=-1)

    def test_chunk_ids_unique(self):
        doc = Document("d", "a\n\nb\n\nc")
        ids = [c.chunk_id for c in ParagraphSplitter().split(doc)]
        assert len(ids) == len(set(ids))


class TestLoaders:
    def test_text_loader(self, tmp_path):
        (tmp_path / "note.txt").write_text("hello world")
        docs = TextLoader(tmp_path / "note.txt").load()
        assert docs[0].doc_id == "note"
        assert docs[0].text == "hello world"

    def test_text_loader_missing(self, tmp_path):
        with pytest.raises(LoaderError):
            TextLoader(tmp_path / "nope.txt").load()

    def test_markdown_sections(self, tmp_path):
        (tmp_path / "guide.md").write_text(
            "intro text\n\n# Setup\ninstall it\n\n## Usage\nrun `cmd` "
            "and [link](http://x)\n"
        )
        docs = MarkdownLoader(tmp_path / "guide.md").load()
        titles = [d.metadata["title"] for d in docs]
        assert titles == ["guide", "Setup", "Usage"]
        assert "cmd" in docs[2].text
        assert "http://x" not in docs[2].text

    def test_markdown_strips_code_fences(self, tmp_path):
        (tmp_path / "g.md").write_text("# T\nbefore\n```\nsecret code\n```\nafter")
        docs = MarkdownLoader(tmp_path / "g.md").load()
        assert "secret code" not in docs[0].text

    def test_csv_loader_rows_as_sentences(self, tmp_path):
        (tmp_path / "prices.csv").write_text("item,price\npen,2\nbook,10\n")
        docs = CsvLoader(tmp_path / "prices.csv").load()
        assert len(docs) == 2
        assert "item is pen" in docs[0].text
        assert "price is 2" in docs[0].text

    def test_directory_loader_mixed(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "b.md").write_text("# B\nbeta")
        (tmp_path / "c.csv").write_text("x\n1\n")
        docs = DirectoryLoader(tmp_path).load()
        assert len(docs) == 3

    def test_directory_loader_extension_filter(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "b.md").write_text("# B\nbeta")
        docs = DirectoryLoader(tmp_path, extensions=[".txt"]).load()
        assert len(docs) == 1

    def test_directory_loader_empty(self, tmp_path):
        with pytest.raises(LoaderError):
            DirectoryLoader(tmp_path).load()


class TestKnowledgeBase:
    def build_kb(self):
        kb = KnowledgeBase()
        kb.add_document(
            Document("pg", "PostgreSQL uses multi version concurrency control "
                           "for snapshot isolation of transactions.")
        )
        kb.add_document(
            Document("net", "The tcp handshake establishes a connection "
                            "before packets flow through the network.")
        )
        kb.add_document(
            Document("ml", "Gradient descent minimizes the loss function "
                           "during model training with backpropagation.")
        )
        return kb

    @pytest.mark.parametrize("strategy", ["vector", "keyword", "hybrid"])
    def test_retrieval_finds_right_doc(self, strategy):
        kb = self.build_kb()
        hits = kb.retrieve(
            "how does snapshot isolation work in postgresql",
            k=1,
            strategy=strategy,
        )
        assert hits[0].chunk.doc_id == "pg"

    def test_graph_strategy_entity_query(self):
        kb = self.build_kb()
        hits = kb.retrieve("PostgreSQL", k=1, strategy="graph")
        assert hits and hits[0].chunk.doc_id == "pg"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            self.build_kb().retrieve("x", strategy="quantum")

    def test_rerank_keeps_best(self):
        kb = self.build_kb()
        hits = kb.retrieve(
            "gradient descent loss", k=1, strategy="hybrid", rerank=True
        )
        assert hits[0].chunk.doc_id == "ml"

    def test_build_context_packs(self):
        kb = self.build_kb()
        packed = kb.build_context("tcp handshake", k=2, max_tokens=50)
        assert packed.used_chunk_ids
        assert packed.token_count <= 50

    def test_duplicate_document_rejected(self):
        kb = self.build_kb()
        with pytest.raises(ValueError):
            kb.add_document(Document("pg", "again"))

    def test_scrubber_applies_during_construction(self):
        kb = KnowledgeBase(scrubber=PrivacyScrubber())
        kb.add_document(Document("d", "contact ada@example.com for access"))
        chunk = kb.retrieve("contact access", k=1, strategy="keyword")[0].chunk
        assert "ada@example.com" not in chunk.text
        assert "<EMAIL_1>" in chunk.text

    def test_len_counts_chunks(self):
        kb = self.build_kb()
        assert len(kb) == 3

    def test_concurrent_first_retrieve_rebuilds_once(self):
        """Two threads making the first search on a fresh knowledge
        base used to both rebuild the vector store and collide on
        ``id ... already stored``."""
        kb = KnowledgeBase()
        for i in range(200):
            kb.add_document(
                Document(f"d{i}", f"topic {i} covers subject number {i % 7}")
            )
        barrier = threading.Barrier(2)
        outcomes: list = []

        def first_retrieve():
            barrier.wait(timeout=10)
            try:
                outcomes.append(kb.retrieve("subject number 3", k=3))
            except Exception as exc:  # reported by the assertion below
                outcomes.append(exc)

        threads = [threading.Thread(target=first_retrieve) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 2
        assert not [o for o in outcomes if isinstance(o, Exception)], outcomes
        first, second = outcomes
        assert [h.chunk.chunk_id for h in first] == [
            h.chunk.chunk_id for h in second
        ]

    def test_load_from_loader(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha beta gamma")
        kb = KnowledgeBase()
        count = kb.load(DirectoryLoader(tmp_path))
        assert count == 1


class TestHybridFusion:
    def test_weights_validation(self):
        kb = KnowledgeBase()
        kb.add_document(Document("d", "text"))
        retriever = kb.retriever("vector")
        with pytest.raises(ValueError):
            HybridRetriever([retriever], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            HybridRetriever([])

    def test_fusion_prefers_agreement(self):
        kb = KnowledgeBase()
        kb.add_document(Document("a", "database index tuning performance"))
        kb.add_document(Document("b", "cooking pasta with tomato sauce"))
        hits = kb.retrieve("database index", k=2, strategy="hybrid")
        assert hits[0].chunk.doc_id == "a"


class TestReranker:
    def test_exact_overlap_beats_vague(self):
        embedder = HashingEmbedder()
        reranker = OverlapReranker(embedder, alpha=0.3)
        hits = [
            RetrievalHit("vague", 0.9, "vector"),
            RetrievalHit("exact", 0.1, "vector"),
        ]
        texts = {
            "vague": "things happen in systems sometimes",
            "exact": "database index tuning guide",
        }
        ranked = reranker.rerank("database index tuning", hits, texts)
        assert ranked[0].chunk_id == "exact"

    def test_k_truncates(self):
        reranker = OverlapReranker(HashingEmbedder())
        hits = [RetrievalHit(str(i), 0.5, "v") for i in range(5)]
        texts = {str(i): f"text {i}" for i in range(5)}
        assert len(reranker.rerank("text", hits, texts, k=2)) == 2

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            OverlapReranker(HashingEmbedder(), alpha=1.5)


class TestIcl:
    def test_template_render(self):
        template = PromptTemplate("Q: {question}\nC: {context}")
        text = template.render(question="why", context="because")
        assert "Q: why" in text and "C: because" in text

    def test_missing_slot_raises(self):
        template = PromptTemplate("{a} {b}")
        with pytest.raises(KeyError):
            template.render(a=1)

    def test_template_without_slots_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate("static text only")

    def test_default_templates_cover_tasks(self):
        assert {"qa", "text2sql", "sql2text", "summary"} <= set(DEFAULT_TEMPLATES)

    def test_packer_respects_budget(self):
        packer = ContextPacker(max_tokens=10)
        chunks = [("a", "one two three four five"), ("b", "six seven eight"),
                  ("c", "nine ten eleven twelve")]
        packed = packer.pack(chunks)
        assert packed.token_count <= 10
        assert packed.dropped_chunk_ids

    def test_packer_truncates_single_oversized_chunk(self):
        packer = ContextPacker(max_tokens=3)
        packed = packer.pack([("big", "one two three four five six")])
        assert packed.used_chunk_ids == ["big"]
        assert packed.token_count == 3

    def test_packer_keeps_best_first_order(self):
        packer = ContextPacker(max_tokens=100)
        packed = packer.pack([("a", "first"), ("b", "second")])
        assert packed.text.index("first") < packed.text.index("second")

    def test_estimate_tokens(self):
        assert estimate_tokens("three word phrase") == 3


class TestPrivacy:
    def test_mask_all_categories(self):
        scrubber = PrivacyScrubber()
        result = scrubber.scrub(
            "mail a@b.com ssn 123-45-6789 card 4111 1111 1111 1111 "
            "phone 555-123-4567 ip 10.0.0.1"
        )
        for token in ("<EMAIL_1>", "<SSN_1>", "<CARD_1>", "<PHONE_1>", "<IP_1>"):
            assert token in result.text

    def test_restore_round_trip(self):
        scrubber = PrivacyScrubber()
        original = "contact ada@example.com or 555-123-4567"
        result = scrubber.scrub(original)
        assert scrubber.restore(result.text, result) == original

    def test_same_value_same_placeholder(self):
        scrubber = PrivacyScrubber()
        first = scrubber.scrub("a@b.com wrote")
        second = scrubber.scrub("reply to a@b.com")
        assert "<EMAIL_1>" in first.text
        assert "<EMAIL_1>" in second.text

    def test_distinct_values_distinct_placeholders(self):
        scrubber = PrivacyScrubber()
        result = scrubber.scrub("a@b.com and c@d.com")
        assert "<EMAIL_1>" in result.text and "<EMAIL_2>" in result.text

    def test_category_subset(self):
        scrubber = PrivacyScrubber(categories=["EMAIL"])
        result = scrubber.scrub("a@b.com ip 10.0.0.1")
        assert "<EMAIL_1>" in result.text
        assert "10.0.0.1" in result.text

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            PrivacyScrubber(categories=["DNA"])

    def test_clean_text_untouched(self):
        scrubber = PrivacyScrubber()
        result = scrubber.scrub("nothing sensitive here")
        assert not result.found_pii
        assert result.text == "nothing sensitive here"
