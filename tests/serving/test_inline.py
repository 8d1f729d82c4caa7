"""A sync caller that finds the engine idle runs its own cohort of one.

``RequestScheduler.schedule`` calls ``ModelController.generate`` on the
caller's thread when nothing is queued, a slot is free and the budget
is not spent; the engine keeps only the books. Everything here is
gated by ``threading.Event``/``Condition`` — no sleeps.
"""

import contextvars
import sys
import threading

import pytest

from repro.llm.base import (
    GenerationRequest,
    GenerationResponse,
    LanguageModel,
    LLMError,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serving import ServingConfig
from repro.serving.scheduler import _Pending
from repro.smmf import ModelSpec, deploy
from repro.tenancy.quotas import TenantThrottled


class RecordingModel(LanguageModel):
    """Echo model that records which thread served each prompt, how
    many callers were inside it at once, and can be held at a gate."""

    def __init__(self):
        super().__init__("chat", frozenset({"chat"}))
        self.changed = threading.Condition()
        self.inside = 0
        self.most_inside = 0
        self.served = []  # (prompt, thread ident), in service order
        self.release = threading.Event()
        self.release.set()

    def _serve(self, prompts):
        with self.changed:
            self.inside += 1
            self.most_inside = max(self.most_inside, self.inside)
            self.changed.notify_all()
        assert self.release.wait(timeout=5.0), "gate never released"
        with self.changed:
            self.inside -= 1
            for prompt in prompts:
                self.served.append((prompt, threading.get_ident()))
            self.changed.notify_all()
        for prompt in prompts:
            if prompt == "poison":
                raise LLMError("poison prompt")

    def complete(self, request):
        self._serve([request.prompt])
        return f"echo: {request.prompt}"

    def generate_batch(self, requests):
        self._serve([request.prompt for request in requests])
        return [
            GenerationResponse(
                text=f"echo: {request.prompt}",
                model=self.name,
                prompt_tokens=1,
                completion_tokens=1,
            )
            for request in requests
        ]

    def wait_inside(self, count):
        with self.changed:
            assert self.changed.wait_for(
                lambda: self.inside == count, timeout=5.0
            )


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def make_scheduler(model, **config):
    controller, _ = deploy(
        [ModelSpec("chat", lambda: model, latency_ms=0.0)],
        serving=ServingConfig(**config),
    )
    return controller.scheduler


def request(prompt, max_tokens=128):
    return GenerationRequest(prompt, task="chat", max_tokens=max_tokens)


def serving_threads():
    return {
        thread.ident
        for thread in threading.enumerate()
        if thread.name.startswith("serving-")
    }


def count_enqueues(scheduler):
    """A semaphore released once per request that joins the queue."""
    enqueued = threading.Semaphore(0)
    enqueue = scheduler._enqueue

    def counted(*args, **kwargs):
        pending = enqueue(*args, **kwargs)
        enqueued.release()
        return pending

    scheduler._enqueue = counted
    return enqueued


def in_thread(fn, *args):
    """Run ``fn`` on a new thread; returns (thread, results list)."""
    results = []

    def run():
        try:
            results.append(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - asserted on
            results.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, results


class TestInlineDispatch:
    def test_idle_engine_runs_the_model_on_the_callers_thread(self):
        model = RecordingModel()
        scheduler = make_scheduler(model)
        before = serving_threads()
        response = scheduler.schedule("chat", request("alone"))
        assert response.text == "echo: alone"
        assert model.served == [("alone", threading.get_ident())]
        # A sync-only process never starts the engine loop.
        assert serving_threads() == before
        assert scheduler._runner is None

    def test_the_engine_keeps_the_books(self, registry):
        scheduler = make_scheduler(RecordingModel())
        scheduler.schedule("chat", request("one"))
        outcomes = registry.get("serving_requests_total")
        assert outcomes.value(model="chat", outcome="admitted") == 1
        assert outcomes.value(model="chat", outcome="completed") == 1
        assert outcomes.value(model="chat", outcome="error") == 0
        sizes = registry.get("serving_batch_size")
        assert sizes.count(model="chat") == 1
        assert sizes.sum(model="chat") == 1
        waits = registry.get("serving_wait_ms")
        assert waits.count(model="chat") == 1
        assert waits.sum(model="chat") == 0
        stats = scheduler.stats()
        assert stats["dispatched_batches"] == 1
        assert stats["dispatched_requests"] == 1
        assert stats["inflight_batches"] == 0

    def test_a_caller_behind_held_slots_queues_and_keeps_its_place(self):
        """With the only slot held, a request queued first is served
        first, and the sync caller that came later waits its turn on
        the engine's step thread instead of jumping in."""
        model = RecordingModel()
        scheduler = make_scheduler(model, pool_width=1)
        enqueued = count_enqueues(scheduler)
        model.release.clear()
        holder, held = in_thread(scheduler.schedule, "chat", request("held"))
        model.wait_inside(1)
        # Different token budgets: separate cohorts, served in order.
        first = scheduler.submit("chat", request("first", max_tokens=64))
        assert enqueued.acquire(timeout=5.0)
        later, answered = in_thread(
            scheduler.schedule, "chat", request("later", max_tokens=32)
        )
        assert enqueued.acquire(timeout=5.0)
        assert scheduler.queue_depth() == 2
        model.release.set()
        holder.join(timeout=5.0)
        later.join(timeout=5.0)
        assert first.wait(timeout=5.0)
        assert held[0].text == "echo: held"
        assert answered[0].text == "echo: later"
        assert [prompt for prompt, _ in model.served] == [
            "held", "first", "later"
        ]
        assert model.served[0][1] == holder.ident
        assert model.served[2][1] != later.ident

    def test_a_caller_does_not_jump_a_queue_while_a_slot_is_free(self):
        """Requests queued but not yet formed (the engine loop busy)
        keep their place: a sync caller that finds a free slot but a
        non-empty queue joins the queue behind them."""
        model = RecordingModel()
        scheduler = make_scheduler(model, pool_width=2)
        enqueued = count_enqueues(scheduler)
        scheduler.submit("chat", request("warm")).wait(timeout=5.0)
        assert enqueued.acquire(timeout=5.0)
        loop_busy, loop_free = threading.Event(), threading.Event()

        def hold_the_loop():
            loop_busy.set()
            assert loop_free.wait(timeout=5.0)

        scheduler._runner.loop.call_soon_threadsafe(hold_the_loop)
        assert loop_busy.wait(timeout=5.0)
        first = scheduler.submit("chat", request("first", max_tokens=64))
        assert enqueued.acquire(timeout=5.0)
        later, answered = in_thread(
            scheduler.schedule, "chat", request("later", max_tokens=32)
        )
        assert enqueued.acquire(timeout=5.0)
        loop_free.set()
        later.join(timeout=5.0)
        assert first.wait(timeout=5.0)
        assert answered[0].text == "echo: later"
        assert all(ident != later.ident for _, ident in model.served)

    def test_no_more_than_pool_width_callers_inside_the_model(self):
        model = RecordingModel()
        scheduler = make_scheduler(model, pool_width=2)
        enqueued = count_enqueues(scheduler)
        model.release.clear()
        callers = [
            in_thread(scheduler.schedule, "chat", request(f"q{n}"))
            for n in range(8)
        ]
        model.wait_inside(2)
        for _ in range(6):
            assert enqueued.acquire(timeout=5.0)
        model.release.set()
        for thread, _ in callers:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert [results[0].text for _, results in callers] == [
            f"echo: q{n}" for n in range(8)
        ]
        assert model.most_inside == 2
        # The two that found a slot ran on their own threads.
        idents = {thread.ident for thread, _ in callers}
        assert len({i for _, i in model.served} & idents) == 2

    def test_slots_and_books_hold_under_contention(self, registry):
        """More sync callers than cores, switching threads every
        microsecond, through a two-slot engine: never more than two
        inside the model, every request answered and counted once,
        and every slot free once the engine has stopped."""
        model = RecordingModel()
        scheduler = make_scheduler(model, pool_width=2)

        def caller(n):
            return [
                scheduler.schedule("chat", request(f"c{n}-{i}")).text
                for i in range(40)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [in_thread(caller, n) for n in range(6)]
            for thread, _ in callers:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for n, (_, results) in enumerate(callers):
            assert results == [[f"echo: c{n}-{i}" for i in range(40)]]
        assert model.most_inside <= 2
        scheduler.close()
        outcomes = registry.get("serving_requests_total")
        assert outcomes.value(model="chat", outcome="admitted") == 240
        assert outcomes.value(model="chat", outcome="completed") == 240
        stats = scheduler.stats()
        assert stats["dispatched_requests"] == 240
        assert stats["inflight_batches"] == 0

    def test_a_model_error_counts_and_frees_the_slot(self, registry):
        model = RecordingModel()
        scheduler = make_scheduler(model, pool_width=1)
        with pytest.raises(LLMError):
            scheduler.schedule("chat", request("poison"))
        outcomes = registry.get("serving_requests_total")
        assert outcomes.value(model="chat", outcome="error") == 1
        assert outcomes.value(model="chat", outcome="completed") == 0
        assert scheduler.stats()["inflight_batches"] == 0
        # The only slot is free again: the next call runs inline too.
        assert scheduler.schedule("chat", request("next")).text == (
            "echo: next"
        )
        assert model.served[-1] == ("next", threading.get_ident())

    def test_a_throttling_hook_rejects_before_any_model_call(
        self, registry
    ):
        model = RecordingModel()
        scheduler = make_scheduler(model)

        def throttle(model_name, generation_request):
            raise TenantThrottled("globex", "over quota", retry_after=0.5)

        scheduler.set_admission_hook(throttle)
        with pytest.raises(TenantThrottled):
            scheduler.schedule("chat", request("denied"))
        assert model.served == []
        outcomes = registry.get("serving_requests_total")
        assert outcomes.value(model="chat", outcome="admitted") == 0
        assert scheduler.stats()["dispatched_requests"] == 0
        assert scheduler._runner is None


class TestPendingSettlement:
    @staticmethod
    def pending():
        return _Pending(
            model="chat",
            request=request("p"),
            enqueued_at=0.0,
            deadline=None,
            context=contextvars.copy_context(),
        )

    def test_a_waiter_after_settlement_returns_at_once(self):
        pending = self.pending()
        response = GenerationResponse("ok", "chat", 1, 1)
        pending.resolve(response)
        assert pending.wait(timeout=0) is True
        assert pending.response is response

    def test_a_callback_fires_exactly_once(self):
        pending = self.pending()
        fired = []
        pending.add_done_callback(lambda: fired.append("early"))
        assert pending.wait(timeout=0) is False
        pending.reject(LLMError("boom"))
        pending.resolve(GenerationResponse("again", "chat", 1, 1))
        pending.add_done_callback(lambda: fired.append("late"))
        assert fired == ["early", "late"]
        assert pending.wait(timeout=0) is True
