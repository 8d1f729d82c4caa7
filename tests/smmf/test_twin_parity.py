"""Sync/async twin parity: every ``x`` / ``ax`` pair shares one body.

Each test drives the blocking entry point and its awaitable twin
through the same scenario and asserts they agree — same text, same
``ClientError`` triple, same chunk list, same retry schedule. Nothing
sleeps: client backoff goes to a recording logical ``sleep``, the shed
is an admission hook, and the deadline is already expired on arrival.
"""

import asyncio
import dataclasses
import random

import pytest

from repro.agents.base import ConversableAgent
from repro.agents.memory import AgentMemory
from repro.agents.messages import AgentMessage
from repro.llm.base import LanguageModel, LLMError
from repro.resilience import ResilienceConfig, RetryConfig
from repro.resilience.retry import RetryPolicy
from repro.serving import SchedulerOverloaded, ServingConfig
from repro.smmf import ModelSpec, deploy
from repro.smmf.api_server import ApiServer
from repro.smmf.client import ClientError, LLMClient

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

    def __init__(self, serving):
        resilience = ResilienceConfig(retry=RETRY)
        self.controller, _ = deploy(
            [ModelSpec("chat", EchoModel, latency_ms=0.0)],
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


def _generate_both(stack, model, prompt, **kwargs):
    """``(text, error triple)`` from ``generate`` and ``agenerate``."""
    outcomes = []
    for side in ("sync", "async"):
        client = stack.clients[side]
        try:
            if side == "sync":
                text = client.generate(model, prompt, task="chat", **kwargs)
            else:
                text = asyncio.run(
                    client.agenerate(model, prompt, task="chat", **kwargs)
                )
            outcomes.append((text, None))
        except ClientError as exc:
            outcomes.append((None, _error_triple(exc)))
    return outcomes


def _stream_both(stack, model, prompt, **kwargs):
    """``(chunks, error triple)`` from ``stream`` and ``astream``; an
    admission failure and a mid-stream one land in the same slot."""

    def drain_sync():
        chunks = []
        try:
            for chunk in stack.clients["sync"].stream(
                model, prompt, task="chat", **kwargs
            ):
                chunks.append(chunk)
        except ClientError as exc:
            return chunks, _error_triple(exc)
        return chunks, None

    async def drain_async():
        chunks = []
        try:
            async for chunk in stack.clients["async"].astream(
                model, prompt, task="chat", **kwargs
            ):
                chunks.append(chunk)
        except ClientError as exc:
            return chunks, _error_triple(exc)
        return chunks, None

    return [drain_sync(), asyncio.run(drain_async())]


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
        sync, awaited = _stream_both(stack, "chat", "a b c d")
        assert sync == awaited == (["echo:", " a", " b", " c", " d"], None)

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
        sync, awaited = _stream_both(stack, model, prompt)
        assert sync == awaited == ([], expected)

    def test_shed_and_expired_streams(self, engine_stack):
        stack = engine_stack
        sync, awaited = _stream_both(stack, "chat", "hello", timeout_s=0.0)
        assert sync == awaited == ([], (504, "deadline_exceeded", None))
        _shed_everything(stack)
        sync, awaited = _stream_both(stack, "chat", "hello")
        assert sync == awaited == ([], (429, "scheduler_overloaded", 0.25))


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


class _CountingAgent(ConversableAgent):
    def __init__(self, memory):
        super().__init__("analyst", "answers questions", memory)
        self.generated = 0

    def generate_reply(self, message):
        self.generated += 1
        return self.reply_to(message, f"fresh answer {self.generated}")


class TestReceiveParity:
    def _ask(self, content):
        return AgentMessage(
            sender="user",
            recipient="analyst",
            content=content,
            conversation_id="conv-2",
            round=3,
        )

    def test_recall_hit_returns_equal_messages(self):
        memory = AgentMemory()
        agent = _CountingAgent(memory)
        archived = agent.receive(self._ask("total sales by region"))
        memory.append(archived)
        assert agent.generated == 1

        again = self._ask("Total sales by region")
        sync = agent.receive(again)
        awaited = asyncio.run(agent.areceive(again))
        assert agent.generated == 1, "both twins must answer from recall"
        assert dataclasses.replace(sync, message_id=0) == dataclasses.replace(
            awaited, message_id=0
        )
        assert sync.content == archived.content
        assert sync.metadata["recalled_from"] == archived.message_id
        assert (sync.conversation_id, sync.round) == ("conv-2", 3)

    def test_recall_miss_generates_on_both_sides(self):
        agent = _CountingAgent(AgentMemory())
        sync = agent.receive(self._ask("first question"))
        awaited = asyncio.run(agent.areceive(self._ask("second question")))
        assert (sync.content, awaited.content) == (
            "fresh answer 1",
            "fresh answer 2",
        )
