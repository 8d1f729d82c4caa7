"""Sync/async twin parity: every ``x`` / ``ax`` pair shares one body.

Each test drives the blocking entry point and its awaitable twin
through the same scenario and asserts they agree — same text, same
``ClientError`` triple, same retry schedule. Streams are async only;
``astream`` is held to ``agenerate``'s text and error triples. Nothing
sleeps: client backoff goes to a recording logical ``sleep``, the shed
is an admission hook, and the deadline is already expired on arrival.
"""

import asyncio
import random

import pytest

import repro.runtime
from repro.cache.config import CacheConfig
from repro.cache.manager import CacheManager, set_cache_manager
from repro.llm.base import LanguageModel, LLMError
from repro.resilience import ResilienceConfig, RetryConfig
from repro.resilience.retry import RetryPolicy
from repro.serving import SchedulerOverloaded, ServingConfig
from repro.smmf import ModelSpec, deploy
from repro.smmf.api_server import ApiServer
from repro.smmf.client import ClientError, LLMClient
from repro.tenancy.context import tenant_scope
from tests.cache.conftest import FakeClock

RETRY = RetryConfig(max_attempts=3, base_delay_s=0.05, jitter=0.5)


class EchoModel(LanguageModel):
    """Echoes the prompt; ``poison`` prompts are rejected outright."""

    def __init__(self):
        super().__init__("chat", frozenset({"chat"}))

    def complete(self, request):
        if "poison" in request.prompt:
            raise LLMError("poisoned prompt")
        return f"echo: {request.prompt}"


class Stack:
    """One deployment with two identically seeded clients — one per
    twin — so retry jitter draws the same sequence on both sides."""

    def __init__(self, serving, model=EchoModel, serve_stale=False):
        resilience = ResilienceConfig(retry=RETRY, serve_stale=serve_stale)
        self.controller, _ = deploy(
            [ModelSpec("chat", model, latency_ms=0.0)],
            serving=serving,
            resilience=resilience,
        )
        server = ApiServer(self.controller)
        self.sleeps = {"sync": [], "async": []}
        self.clients = {
            side: LLMClient(
                server,
                resilience=resilience,
                sleep=self.sleeps[side].append,
                rng=random.Random(7),
            )
            for side in self.sleeps
        }

    @property
    def scheduler(self):
        return self.controller.scheduler


CONTINUOUS = ServingConfig(enabled=True)


@pytest.fixture
def engine_stack():
    built = Stack(CONTINUOUS)
    yield built
    built.scheduler.close()


@pytest.fixture(params=["continuous"])
def stack(engine_stack):
    """``engine_stack`` under the id its scenarios have always had."""
    return engine_stack


def _error_triple(exc):
    return (exc.status, exc.code, exc.retry_after)


def _ask(stack, side, model, prompt, **kwargs):
    """``(text, error triple)`` from one twin: ``generate`` on the
    ``sync`` side, ``agenerate`` on the ``async`` side."""
    client = stack.clients[side]
    try:
        if side == "sync":
            text = client.generate(model, prompt, task="chat", **kwargs)
        else:
            text = asyncio.run(
                client.agenerate(model, prompt, task="chat", **kwargs)
            )
    except ClientError as exc:
        return None, _error_triple(exc)
    return text, None


def _generate_both(stack, model, prompt, **kwargs):
    """``(text, error triple)`` from ``generate`` and ``agenerate``."""
    return [
        _ask(stack, side, model, prompt, **kwargs)
        for side in ("sync", "async")
    ]


def _stream_and_generate(stack, model, prompt, **kwargs):
    """``(chunks, error triple)`` from ``astream``, then ``(text, error
    triple)`` from ``agenerate``: streams have no sync twin, so their
    parity is with the unary call; an admission failure and a
    mid-stream one land in the same slot."""

    async def drain():
        chunks = []
        try:
            async for chunk in stack.clients["async"].astream(
                model, prompt, task="chat", **kwargs
            ):
                chunks.append(chunk)
        except ClientError as exc:
            return chunks, _error_triple(exc)
        return chunks, None

    streamed = asyncio.run(drain())
    return streamed, _ask(stack, "async", model, prompt, **kwargs)


def _shed_everything(stack):
    def hook(model, request):
        raise SchedulerOverloaded("queue full", retry_after=0.25)

    stack.scheduler.set_admission_hook(hook)


class TestGenerateParity:
    def test_same_text(self, stack):
        sync, awaited = _generate_both(stack, "chat", "hello there")
        assert sync == awaited == ("echo: hello there", None)
        assert stack.sleeps == {"sync": [], "async": []}

    def test_unknown_model_is_503_after_the_same_retries(self, stack):
        sync, awaited = _generate_both(stack, "nope", "hello")
        assert sync == awaited == (None, (503, "smmf_unavailable", None))
        assert len(stack.sleeps["sync"]) == RETRY.max_attempts - 1
        assert stack.sleeps["sync"] == stack.sleeps["async"]

    def test_shed_is_429_and_retry_after_floors_the_backoff(
        self, engine_stack
    ):
        stack = engine_stack
        _shed_everything(stack)
        sync, awaited = _generate_both(stack, "chat", "hello")
        assert sync == awaited == (None, (429, "scheduler_overloaded", 0.25))
        assert stack.sleeps["sync"] == [0.25, 0.25]
        assert stack.sleeps["async"] == [0.25, 0.25]

    def test_expired_deadline_is_504_and_never_retried(self, engine_stack):
        stack = engine_stack
        sync, awaited = _generate_both(
            stack, "chat", "hello", timeout_s=0.0
        )
        assert sync == awaited == (None, (504, "deadline_exceeded", None))
        assert stack.sleeps == {"sync": [], "async": []}


class TestStreamParity:
    def test_same_chunks(self, stack):
        streamed, generated = _stream_and_generate(stack, "chat", "a b c d")
        assert streamed == (["echo:", " a", " b", " c", " d"], None)
        assert generated == ("".join(streamed[0]), None)

    @pytest.mark.parametrize(
        "model, prompt, expected",
        [
            ("nope", "hello", (503, "smmf_unavailable", None)),
            ("chat", "poison pill", (422, "llm_error", None)),
        ],
    )
    def test_failures_map_to_the_same_codes(
        self, stack, model, prompt, expected
    ):
        streamed, generated = _stream_and_generate(stack, model, prompt)
        assert streamed == ([], expected)
        assert generated == (None, expected)

    def test_shed_and_expired_streams(self, engine_stack):
        stack = engine_stack
        streamed, generated = _stream_and_generate(
            stack, "chat", "hello", timeout_s=0.0
        )
        assert streamed == ([], (504, "deadline_exceeded", None))
        assert generated == (None, (504, "deadline_exceeded", None))
        _shed_everything(stack)
        streamed, generated = _stream_and_generate(stack, "chat", "hello")
        assert streamed == ([], (429, "scheduler_overloaded", 0.25))
        assert generated == (None, (429, "scheduler_overloaded", 0.25))


class Transient(Exception):
    def __init__(self, retry_after=None):
        super().__init__("transient")
        self.retry_after = retry_after


def _classify(exc):
    return isinstance(exc, Transient), getattr(exc, "retry_after", None)


def _run_both(config, hints):
    """Drive ``run`` and ``arun`` over a callable that fails once per
    entry of ``hints`` (raising that ``retry_after``) and then returns;
    each side reports ``(outcome, attempts, delays, on_retry calls)``."""
    reports = []
    for awaited in (False, True):
        delays, seen, calls = [], [], [0]
        policy = RetryPolicy(
            config, sleep=delays.append, rng=random.Random(11)
        )

        def attempt():
            calls[0] += 1
            if calls[0] <= len(hints):
                raise Transient(hints[calls[0] - 1])
            return "ok"

        async def aattempt():
            return attempt()

        def on_retry(number, delay):
            seen.append((number, delay))

        try:
            if awaited:
                outcome = asyncio.run(
                    policy.arun(aattempt, _classify, on_retry=on_retry)
                )
            else:
                outcome = policy.run(attempt, _classify, on_retry=on_retry)
        except Transient as exc:
            outcome = exc.retry_after
        reports.append((outcome, calls[0], delays, seen))
    return reports


class TestRetryPolicyParity:
    def test_same_attempts_and_delay_sequence(self):
        config = RetryConfig(
            max_attempts=4, base_delay_s=0.1, jitter=0.5, budget_s=None
        )
        sync, awaited = _run_both(config, [None, None])
        assert sync == awaited
        outcome, attempts, delays, seen = sync
        assert (outcome, attempts) == ("ok", 3)
        assert len(delays) == 2 and 0.1 <= delays[0] < delays[1]
        assert seen == [(1, delays[0]), (2, delays[1])]

    def test_retry_after_floors_the_delay(self):
        config = RetryConfig(max_attempts=3, base_delay_s=0.01, jitter=0.0)
        sync, awaited = _run_both(config, [0.75, None])
        assert sync == awaited
        assert sync[2] == [0.75, 0.02]

    def test_attempts_run_out_at_the_same_point(self):
        config = RetryConfig(max_attempts=3, base_delay_s=0.01, jitter=0.0)
        sync, awaited = _run_both(config, [None, None, 9.0, None])
        assert sync == awaited
        # The third failure is re-raised unchanged (its hint survives).
        assert sync[:3] == (9.0, 3, [0.01, 0.02])

    def test_budget_stops_both_at_the_same_point(self):
        config = RetryConfig(
            max_attempts=10,
            base_delay_s=1.0,
            max_delay_s=8.0,
            jitter=0.0,
            budget_s=3.5,
        )
        sync, awaited = _run_both(config, [None, None, 4.0, None])
        assert sync == awaited
        # 1.0 + 2.0 fit the budget; the third wait (4.0) would not.
        assert sync[:3] == (4.0, 3, [1.0, 2.0])


# -- the inference cache tier ------------------------------------------------


class CountingEcho(EchoModel):
    def __init__(self, served):
        super().__init__()
        self.served = served

    def complete(self, request):
        self.served.append(request.prompt)
        return super().complete(request)


class CachedStack(Stack):
    """:class:`Stack` with the inference tier on: a 10 s TTL on a fake
    clock and stale serving. The two clients have
    their own cache keys, so each twin meets the same cold cache."""

    def __init__(self):
        self.served = []
        super().__init__(
            CONTINUOUS,
            model=lambda: CountingEcho(self.served),
            serve_stale=True,
        )
        self.clock = FakeClock()
        self.manager = CacheManager(
            CacheConfig().with_tier("inference", ttl_seconds=10.0),
            clock=self.clock,
        )

    def counts(self):
        row = self.manager.stats()["inference"]
        return len(self.served), row["hits"], row["misses"]


@pytest.fixture
def cached_stack():
    built = CachedStack()
    previous = set_cache_manager(built.manager)
    yield built
    set_cache_manager(previous)
    built.scheduler.close()


def _per_side(stack, scenario):
    """``scenario(ask)`` once per twin, each followed by what it cost:
    ``(outcome, (model calls, cache hits, cache misses))``."""
    reports = []
    for side in ("sync", "async"):
        before = stack.counts()
        outcome = scenario(
            lambda prompt, model="chat", **kw: _ask(
                stack, side, model, prompt, **kw
            )
        )
        after = stack.counts()
        reports.append(
            (outcome, tuple(b - a for a, b in zip(before, after)))
        )
    return reports


QUESTION = (
    "how many orders were placed in the north region "
    "during the last quarter of the year"
)


class TestCachedGenerateParity:
    def test_same_text_and_the_same_hits_and_misses(self, cached_stack):
        def scenario(ask):
            return [ask("hello"), ask("hello"), ask("  hello  "), ask("bye")]

        sync, awaited = _per_side(cached_stack, scenario)
        assert sync == awaited
        outcome, cost = sync
        # The prompt is keyed exactly: a whitespace variant is a miss.
        assert outcome == [("echo: hello", None)] * 2 + [
            ("echo:   hello  ", None),
            ("echo: bye", None),
        ]
        assert cost == (3, 1, 3)

    def test_a_cached_answer_is_served_stale_on_a_503(self, cached_stack):
        stack = cached_stack
        first = [_ask(stack, side, "chat", QUESTION) for side in stack.clients]
        stack.controller.workers("chat")[0].worker.kill()
        stack.clock.advance(60.0)  # both cached answers are now expired
        again = [_ask(stack, side, "chat", QUESTION) for side in stack.clients]
        assert first == again == [("echo: " + QUESTION, None)] * 2
        assert [c.stale_serves for c in stack.clients.values()] == [1, 1]
        # The stack was retried before the stale rung answered.
        assert len(stack.sleeps["sync"]) == RETRY.max_attempts - 1
        assert stack.sleeps["sync"] == stack.sleeps["async"]

    def test_a_503_without_a_cached_answer_still_fails(self, cached_stack):
        cached_stack.controller.workers("chat")[0].worker.kill()
        sync, awaited = _generate_both(cached_stack, "chat", QUESTION)
        assert sync == awaited == (None, (503, "smmf_unavailable", None))

    def test_tenant_groups_never_alias_across_tenants(self, cached_stack):
        def scenario(ask):
            with tenant_scope("acme"):
                first = ask(QUESTION)
            with tenant_scope("globex"):
                second = ask(QUESTION + "?")
            return [first, second]

        sync, awaited = _per_side(cached_stack, scenario)
        assert sync == awaited
        outcome, cost = sync
        assert outcome == [
            ("echo: " + QUESTION, None),
            ("echo: " + QUESTION + "?", None),
        ]
        assert cost == (2, 0, 2)

    def test_errors_are_never_cached(self, cached_stack):
        def scenario(ask):
            return [ask("poison pill"), ask("poison pill")]

        sync, awaited = _per_side(cached_stack, scenario)
        assert sync == awaited
        outcome, cost = sync
        assert outcome == [(None, (422, "llm_error", None))] * 2
        assert cost == (2, 0, 2)
        assert len(cached_stack.manager.store("inference")) == 0

    def test_a_sync_cache_hit_enters_no_event_loop(
        self, cached_stack, monkeypatch
    ):
        client = cached_stack.clients["sync"]
        answer = client.generate("chat", "hello", task="chat")
        entered = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                entered.append(name)
                return original(*args, **kwargs)

            return wrapper

        for owner, name in (
            (asyncio, "new_event_loop"),
            (asyncio, "run"),
            (asyncio.BaseEventLoop, "run_until_complete"),
            (asyncio.BaseEventLoop, "run_forever"),
            (repro.runtime, "run_sync"),
        ):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        assert client.generate("chat", "hello", task="chat") == answer
        assert entered == []
        assert cached_stack.counts() == (1, 1, 1)
