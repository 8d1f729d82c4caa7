"""Tests for SMMF streaming inference."""

import asyncio
import threading

import pytest

from repro.core import DBGPT, DbGptConfig
from repro.llm import ChatModel, GenerationRequest
from repro.obs.tracer import Tracer, set_tracer
from repro.smmf import ModelSpec, ModelWorker, SmmfError, deploy


def chat_spec(replicas=1):
    return ModelSpec("chat", lambda: ChatModel("chat"), replicas=replicas)


class GatedStreamModel(ChatModel):
    """Streams one chunk, then parks inside the next pull."""

    def __init__(self):
        super().__init__("chat")
        self.pulling = threading.Event()
        self.release = threading.Event()

    def stream(self, request):
        chunks = super().stream(request)
        yield next(chunks)
        self.pulling.set()
        assert self.release.wait(timeout=5.0), "gate never released"
        yield from chunks


class TestStreaming:
    def test_model_stream_reassembles_to_generate(self):
        model = ChatModel("chat")
        request = GenerationRequest("hello there friend")
        full = model.generate(request).text
        streamed = "".join(model.stream(request))
        assert streamed == full

    def test_stream_yields_multiple_chunks(self):
        model = ChatModel("chat")
        chunks = list(model.stream(GenerationRequest("hello there friend")))
        assert len(chunks) > 1

    def test_worker_stream_counts_served(self):
        worker = ModelWorker(ChatModel("chat"))
        chunks = list(worker.handle_stream(GenerationRequest("hi")))
        assert chunks
        assert worker.served == 1
        assert worker.inflight == 0

    def test_controller_stream_round_trip(self):
        controller, _client = deploy([chat_spec(replicas=2)])
        stream = controller.stream("chat", GenerationRequest("hello world"))
        text = "".join(stream)
        assert "hello world" in text

    def test_controller_stream_failover_before_first_chunk(self):
        controller, _client = deploy([chat_spec(replicas=2)])
        controller.workers("chat")[0].worker.fail_next = 1
        stream = controller.stream("chat", GenerationRequest("hi"))
        assert "".join(stream)
        assert controller.metrics.model("chat").retries == 1

    def test_controller_stream_all_down(self):
        controller, _client = deploy([chat_spec(replicas=1)])
        controller.workers("chat")[0].worker.kill()
        with pytest.raises(SmmfError):
            controller.stream("chat", GenerationRequest("hi"))


class TestAsyncStreamWithoutEngine:
    """``LLMClient.astream`` on the default configuration (no serving
    engine): the scheduler-less fallback drains the controller's sync
    stream through the executor."""

    PROMPT = "hello there friend"

    @pytest.fixture
    def tracer(self):
        fresh = Tracer()
        previous = set_tracer(fresh)
        yield fresh
        set_tracer(previous)

    def test_chunks_join_to_generate_and_worker_span_closes_ok(self, tracer):
        dbgpt = DBGPT(DbGptConfig())
        assert dbgpt.controller.scheduler is None

        async def main():
            return [
                chunk
                async for chunk in dbgpt.client.astream(
                    "chat", self.PROMPT, task="chat"
                )
            ]

        chunks = asyncio.run(main())
        assert len(chunks) > 1
        assert "".join(chunks) == dbgpt.client.generate(
            "chat", self.PROMPT, task="chat"
        )
        streamed = [
            span
            for trace_id in tracer.trace_ids()
            for span in tracer.trace(trace_id)
            if span.name == "smmf.worker" and span.attributes.get("stream")
        ]
        assert len(streamed) == 1
        assert streamed[0].ended and streamed[0].status == "ok"
        assert streamed[0].attributes["chunks"] == len(chunks)

    def test_abandoned_stream_frees_the_worker(self):
        dbgpt = DBGPT(DbGptConfig())
        worker = dbgpt.controller.workers("chat")[0].worker

        async def main():
            stream = dbgpt.client.astream("chat", self.PROMPT, task="chat")
            first = await stream.__anext__()
            assert worker.inflight == 1
            await stream.aclose()
            return first

        assert asyncio.run(main())
        assert worker.inflight == 0
        assert worker.abandoned_streams == 1

    def test_cancelled_mid_pull_waits_the_pull_out_then_closes(self, tracer):
        """Cancelling the consumer while the executor thread is inside
        ``next(chunks)`` must not close the stream under it: the pull
        finishes first, then the close runs in the same Context."""
        model = GatedStreamModel()
        controller, client = deploy([ModelSpec("chat", lambda: model)])
        worker = controller.workers("chat")[0].worker

        async def consume():
            async for _chunk in client.astream(
                "chat", self.PROMPT, task="chat"
            ):
                pass

        async def main():
            consumer = asyncio.ensure_future(consume())
            assert await asyncio.to_thread(model.pulling.wait, 5.0)
            consumer.cancel()
            # The cancellation lands while the pull is parked at the
            # gate. A consumer that closes under the pull dies within
            # this wait; one that waits the pull out outlasts it.
            await asyncio.wait([consumer], timeout=0.05)
            assert not consumer.done()
            model.release.set()
            with pytest.raises(asyncio.CancelledError):
                await consumer

        asyncio.run(main())
        stats = worker.stats_snapshot()
        assert stats["inflight"] == 0
        assert stats["abandoned_streams"] == 1
        streamed = [
            span
            for trace_id in tracer.trace_ids()
            for span in tracer.trace(trace_id)
            if span.name == "smmf.worker" and span.attributes.get("stream")
        ]
        assert len(streamed) == 1 and streamed[0].ended
