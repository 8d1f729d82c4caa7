"""The sql-coder's per-replica prefix store: same answers as a model
that compiles its prompt from scratch, bounded, once per fused step,
retired by a lexicon change, shared safely by threads, lost on restart.
"""

import sys
import threading

import pytest

from repro.datasets import build_spider_database
from repro.datasets.spider import domain_synonyms, generate_examples
from repro.datasources import EngineSource
from repro.llm import GenerationRequest, LLMError, SqlCoderModel
from repro.llm.base import count_tokens
from repro.llm.prompts import build_text2sql_prompt
from repro.llm.sql_coder import PREFIX_STORE_CAPACITY
from repro.nlu.lexicon import Lexicon
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.smmf import ModelWorker

DOMAINS = ("retail", "clinic")


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def lookups(registry, outcome, model="sql-coder"):
    return registry.counter("llm_prefix_cache_total").value(
        model=model, outcome=outcome
    )


def learned_lexicon() -> Lexicon:
    lexicon = Lexicon()
    for domain in DOMAINS:
        for phrase, (kind, target) in domain_synonyms(domain).items():
            lexicon.add_synonym(phrase, kind, target)
    return lexicon


def interleaved_requests(n_per_domain=30) -> list[GenerationRequest]:
    """en + zh questions, with synonyms, two schemas taking turns."""
    per_domain = []
    for domain in DOMAINS:
        source = EngineSource(build_spider_database(domain))
        examples = generate_examples(
            domain, n=n_per_domain, seed=7, language="en"
        ) + generate_examples(domain, n=n_per_domain, seed=8, language="zh")
        per_domain.append(
            [
                GenerationRequest(
                    build_text2sql_prompt(source, example.question),
                    task="text2sql",
                )
                for example in examples
            ]
        )
    return [request for pair in zip(*per_domain) for request in pair]


def outcome(model, request):
    """What a caller can observe of one generation."""
    try:
        response = model.generate(request)
    except LLMError as exc:
        return ("error", str(exc))
    return (
        response.text,
        response.prompt_tokens,
        response.completion_tokens,
        response.finish_reason,
    )


def schema_prompt(number: int, question="How many rows are in t?") -> str:
    return (
        f"Given the database schema:\nt(id INTEGER, c{number} TEXT)\n"
        f"Known column values:\nt.c{number}: v{number}\n"
        f"Write one SQL query answering: {question}\nSQL:"
    )


class TestSameAnswers:
    def test_byte_identical_to_a_fresh_model_per_request(self, registry):
        requests = interleaved_requests()
        lexicon = learned_lexicon()
        expected = [
            outcome(SqlCoderModel(lexicon=lexicon.copy()), request)
            for request in requests
        ]
        # A fresh model per request compiles every time.
        assert lookups(registry, "miss") == len(requests)
        model = SqlCoderModel("sql-coder", lexicon=lexicon)
        answered = 0
        for request, fresh in zip(requests, expected):
            served = outcome(model, request)
            assert served == fresh
            assert served[0] == "error" or served[1] == count_tokens(
                request.prompt
            )
            answered += served[0] != "error"
        assert answered > len(requests) // 2
        # Two schemas, two compiles; every other generation was a hit.
        assert lookups(registry, "miss") == len(requests) + 2
        assert lookups(registry, "hit") == len(requests) - 2

    def test_prompt_without_the_standard_layout_still_counts_tokens(self):
        prompt = (
            "Write one SQL query answering: How many rows are in t? "
            "Given the database schema:\nt(id INTEGER)"
        )
        response = SqlCoderModel().generate(GenerationRequest(prompt))
        assert response.text == "SELECT COUNT(*) FROM t"
        assert response.prompt_tokens == count_tokens(prompt)

    def test_an_unparsable_schema_fails_every_time(self):
        model = SqlCoderModel()
        bad = GenerationRequest(
            "Given the database schema:\n???\n"
            "Write one SQL query answering: anything\nSQL:"
        )
        for _ in range(2):
            with pytest.raises(LLMError, match="schema section"):
                model.generate(bad)
        assert model.cached_prefixes() == 0


class TestBoundedStore:
    def test_a_hundred_prefixes_stay_within_the_constant(self, registry):
        model = SqlCoderModel()
        for number in range(100):
            model.generate(GenerationRequest(schema_prompt(number)))
            assert model.cached_prefixes() <= PREFIX_STORE_CAPACITY
        assert model.cached_prefixes() == PREFIX_STORE_CAPACITY
        assert lookups(registry, "miss") == 100
        evicted = registry.counter("llm_prefix_evictions_total").value(
            model="sql-coder"
        )
        # Two entries per prefix (parser, token count) went in.
        assert evicted == 200 - PREFIX_STORE_CAPACITY


class TestFusedStep:
    def test_each_distinct_prefix_is_looked_up_once_per_batch(self, registry):
        model = SqlCoderModel("replica")
        batch = [
            GenerationRequest(schema_prompt(number, question))
            for question in ("How many rows are in t?", "List the id of t")
            for number in (1, 2, 1)
        ]
        expected = [outcome(SqlCoderModel(), request) for request in batch]

        def counted():
            return tuple(
                lookups(registry, outcome, model="replica")
                for outcome in ("miss", "hit")
            )

        first = model.generate_batch(batch)
        assert counted() == (2, 0)
        second = model.generate_batch(batch)
        assert counted() == (2, 2)
        for responses in (first, second):
            assert [
                (r.text, r.prompt_tokens, r.completion_tokens, r.finish_reason)
                for r in responses
            ] == expected

    def test_a_thrashing_store_still_compiles_once_per_step(
        self, registry, monkeypatch
    ):
        # More live prefixes in one step than the store holds: members
        # that share a prefix must not each pay for its compile.
        model = SqlCoderModel()
        compiled = []
        compile_prefix = model._compile

        def spy(schema_text, values_text):
            compiled.append(schema_text)
            return compile_prefix(schema_text, values_text)

        monkeypatch.setattr(model, "_compile", spy)
        distinct = PREFIX_STORE_CAPACITY + 3
        batch = [
            GenerationRequest(schema_prompt(number, question))
            for question in ("How many rows are in t?", "List the id of t")
            for number in range(distinct)
        ]
        model.generate_batch(batch)
        assert len(compiled) == distinct == len(set(compiled))
        assert lookups(registry, "miss") == distinct

    def test_a_poison_member_fails_the_step_and_counts_what_ran(
        self, registry
    ):
        model = SqlCoderModel()
        batch = [
            GenerationRequest(schema_prompt(1)),
            GenerationRequest(schema_prompt(1, "zzz qqq")),
        ]
        with pytest.raises(LLMError):
            model.generate_batch(batch)
        assert lookups(registry, "miss") == 1
        # The step's scratch state is gone: a lone call counts itself.
        model.generate(batch[0])
        assert lookups(registry, "hit") == 1


class TestLexiconChanges:
    PROMPT = (
        "Given the database schema:\norders(order_id INTEGER, amount REAL, net REAL)\n"
        "Write one SQL query answering: What is the total revenue of orders?"
        "\nSQL:"
    )

    def test_mutating_the_lexicon_retires_compiled_prefixes(self, registry):
        model = SqlCoderModel()
        request = GenerationRequest(self.PROMPT)
        before = model.generate(request).text
        assert "SUM(amount)" in before  # measure guessed, not linked
        model.lexicon.add_synonym("revenue", "column", "net", "orders")
        after = model.generate(request).text
        assert after == "SELECT SUM(net) FROM orders"
        assert lookups(registry, "miss") == 2

    def test_replacing_the_lexicon_does_too(self, registry):
        model = SqlCoderModel()
        request = GenerationRequest(self.PROMPT)
        model.generate(request)
        learned = Lexicon()
        learned.add_synonym("revenue", "column", "net", "orders")
        model.lexicon = learned
        assert model.generate(request).text == "SELECT SUM(net) FROM orders"
        assert lookups(registry, "miss") == 2


class TestSharedByThreads:
    def test_four_threads_equal_the_serial_answers(self):
        requests = (interleaved_requests(n_per_domain=25) * 2)[:200]
        lexicon = learned_lexicon()
        serial_model = SqlCoderModel("sql-coder", lexicon=lexicon.copy())
        serial = [outcome(serial_model, request) for request in requests]

        model = SqlCoderModel("sql-coder", lexicon=lexicon)
        answers = [[None] * len(requests) for _ in range(4)]
        start = threading.Barrier(4)

        def client(lane):
            start.wait(timeout=10)
            # Lanes walk the list from different offsets so the same
            # parser is inside ``parse`` on several threads at once.
            for step in range(len(requests)):
                index = (step + lane * 50) % len(requests)
                answers[lane][index] = outcome(model, requests[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(lane,))
                for lane in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(lane == serial for lane in answers)
        assert model.cached_prefixes() == 2 * len(DOMAINS)


class TestWorkerRestart:
    def test_restart_brings_the_replica_back_cold(self):
        worker = ModelWorker(SqlCoderModel())
        request = GenerationRequest(schema_prompt(1))
        warm = worker.handle(request)
        assert worker.stats_snapshot()["prefix_entries"] == 2
        worker.kill()
        worker.restart()
        assert worker.stats_snapshot()["prefix_entries"] == 0
        assert worker.handle(request) == warm
