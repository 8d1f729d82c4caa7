"""Tests for SMMF streaming inference through the serving engine."""

import asyncio
import gc
import sys
import threading

import pytest

from repro.llm import ChatModel, GenerationRequest
from repro.llm.base import chunk_text
from repro.serving import ServingConfig
from repro.serving.streams import TokenStream
from repro.smmf import ModelSpec, deploy
from repro.smmf.client import ClientError

PROMPT = "hello there friend"


def chat_spec(replicas=1):
    return ModelSpec("chat", lambda: ChatModel("chat"), replicas=replicas)


class GatedChatModel(ChatModel):
    """Parks inside ``complete`` until the test opens the gate."""

    def __init__(self):
        super().__init__("chat")
        self.entered = threading.Event()
        self.release = threading.Event()

    def complete(self, request):
        self.entered.set()
        assert self.release.wait(timeout=5.0), "gate never released"
        return super().complete(request)


@pytest.fixture
def opened_streams(monkeypatch):
    """Every engine token stream opened during the test, so a test can
    wait on ``released`` for the engine to give the member's seat up."""
    opened = []
    init = TokenStream.__init__

    def recording(stream, *args, **kwargs):
        init(stream, *args, **kwargs)
        opened.append(stream)

    monkeypatch.setattr(TokenStream, "__init__", recording)
    return opened


def stream(client, *args, **kwargs):
    """Every chunk of one ``astream``, drained on a fresh loop."""

    async def drain():
        return [chunk async for chunk in client.astream(*args, **kwargs)]

    return asyncio.run(drain())


class TestStreaming:
    def test_model_stream_reassembles_to_generate(self):
        _controller, client = deploy([chat_spec()])
        streamed = "".join(stream(client, "chat", PROMPT, task="chat"))
        assert streamed == client.generate("chat", PROMPT, task="chat")

    def test_stream_yields_multiple_chunks(self):
        _controller, client = deploy([chat_spec()])
        chunks = stream(client, "chat", PROMPT)
        text = ChatModel("chat").generate(GenerationRequest(PROMPT)).text
        assert len(chunks) > 1
        assert chunks == chunk_text(text)

    def test_worker_stream_counts_served(self):
        controller, client = deploy([chat_spec()])
        worker = controller.workers("chat")[0].worker
        assert stream(client, "chat", "hi")
        stats = worker.stats_snapshot()
        assert (stats["served"], stats["inflight"]) == (1, 0)

    def test_controller_stream_round_trip(self):
        _controller, client = deploy([chat_spec(replicas=2)])
        text = "".join(stream(client, "chat", "hello world"))
        assert "hello world" in text

    def test_controller_stream_failover_before_first_chunk(self):
        controller, client = deploy([chat_spec(replicas=2)])
        first, second = (record.worker for record in controller.workers("chat"))
        first.fail_next = 1
        assert "".join(stream(client, "chat", "hi"))
        assert first.stats_snapshot()["failed"] == 1
        assert second.stats_snapshot()["served"] == 1

    def test_controller_stream_all_down(self):
        controller, client = deploy([chat_spec(replicas=1)])
        controller.workers("chat")[0].worker.kill()
        with pytest.raises(ClientError) as raised:
            stream(client, "chat", "hi")
        assert (raised.value.status, raised.value.code) == (
            503,
            "smmf_unavailable",
        )


class TestAsyncStream:
    def test_abandoned_stream_frees_the_worker(self, opened_streams):
        # A one-chunk buffer keeps the member generating until drained.
        controller, client = deploy(
            [chat_spec()], serving=ServingConfig(stream_buffer=1)
        )
        worker = controller.workers("chat")[0].worker

        async def main():
            stream = client.astream("chat", PROMPT, task="chat")
            first = await stream.__anext__()
            assert worker.stats_snapshot()["inflight"] == 1
            await stream.aclose()
            return first

        assert asyncio.run(main())
        assert opened_streams[0].released.wait(timeout=5.0)
        stats = worker.stats_snapshot()
        assert (stats["inflight"], stats["served"]) == (0, 0)
        assert stats["cancelled_streams"] == 1

    def test_cancelled_while_the_open_waits_for_the_first_chunk(
        self, opened_streams, monkeypatch
    ):
        """The consumer is cancelled while the model is still computing
        the first chunk. Once the model returns, the engine releases
        the member, and nothing is left for the garbage collector to
        finish in the wrong ``Context``."""
        model = GatedChatModel()
        controller, client = deploy([ModelSpec("chat", lambda: model)])
        worker = controller.workers("chat")[0].worker
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        async def consume():
            async for _chunk in client.astream("chat", PROMPT, task="chat"):
                pass

        async def main():
            consumer = asyncio.ensure_future(consume())
            assert await asyncio.to_thread(model.entered.wait, 5.0)
            consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await consumer
            model.release.set()

        asyncio.run(main())
        for stream in opened_streams:
            assert stream.released.wait(timeout=5.0)
        gc.collect()
        assert [repr(hook.exc_value) for hook in unraisable] == []
        assert worker.stats_snapshot()["inflight"] == 0
        stats = controller.scheduler.stats()
        assert (stats["inflight_members"], stats["cancelled"]) == (0, 1)
