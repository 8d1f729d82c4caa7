"""``repro.runtime.run_sync``: one persistent event loop per thread.

With no loop running, every call on a thread runs on that thread's own
loop, created on first use and closed when the thread exits. Each call
still behaves like ``asyncio.run`` where it matters to callers: the
coroutine sees the caller's context at *this* call, tasks it abandons
are cancelled before return, and a raising coroutine leaves the loop
usable. Called from inside a running loop, it hops to a helper thread
that carries the caller's context.
"""

import asyncio
import contextvars
import gc
import os
import threading
import warnings

import pytest

from repro.awel import DAG, InputOperator, MapOperator, WorkflowRunner
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.runtime import run_sync
from repro.tenancy.context import current_tenant, tenant_scope


async def _running_loop():
    return asyncio.get_running_loop()


JOIN_TIMEOUT_S = 10.0


def _loop_on_a_new_thread():
    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(run_sync(_running_loop()))
    )
    thread.start()
    thread.join(JOIN_TIMEOUT_S)
    assert not thread.is_alive()
    return seen[0]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def tracer():
    fresh = Tracer()
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


class TestRunSync:
    @staticmethod
    def _runner():
        with DAG("inner") as dag:
            InputOperator(name="in") >> MapOperator(
                lambda value: value + 1, name="inc"
            )
        return WorkflowRunner(dag)

    def test_plain_call_runs_on_the_callers_thread(self):
        async def answer():
            return threading.get_ident(), 42

        assert run_sync(answer()) == (threading.get_ident(), 42)

    def test_nested_run_keeps_the_span_parented(self, tracer):
        """``run_sync`` from inside a running loop hops to a helper
        thread carrying the caller's context: the inner ``awel.dag``
        span stays a child of the span that was open at the call."""
        runner = self._runner()

        async def outer():
            with tracer.span("caller") as caller:
                ctx = runner.run(1)
            return caller, ctx

        caller, ctx = asyncio.run(outer())
        assert ctx.results["inc"] == 2
        spans = tracer.trace(caller.trace_id)
        inner = [span for span in spans if span.name == "awel.dag"]
        assert len(inner) == 1
        assert inner[0].parent_id == caller.span_id
        assert inner[0].status == "ok"


class TestOneLoopPerThread:
    def test_consecutive_calls_share_the_loop(self):
        first = run_sync(_running_loop())
        second = run_sync(_running_loop())
        assert first is second
        assert not first.is_closed()

    def test_two_threads_never_share_a_loop(self):
        here = run_sync(_running_loop())
        there = _loop_on_a_new_thread()
        elsewhere = _loop_on_a_new_thread()
        assert len({id(here), id(there), id(elsewhere)}) == 3

    def test_the_loop_is_closed_when_its_thread_exits(self):
        assert _loop_on_a_new_thread().is_closed()

    def test_the_loop_works_after_a_raising_coroutine(self):
        async def fail():
            raise ValueError("boom")

        before = run_sync(_running_loop())
        with pytest.raises(ValueError, match="boom"):
            run_sync(fail())
        assert run_sync(_running_loop()) is before

    def test_to_thread_reuses_the_default_executor(self):
        """The workers outlive the call: the pool is not shut down and
        started again per call, as ``asyncio.run``'s would be."""
        workers = {
            run_sync(asyncio.to_thread(threading.current_thread))
            for _ in range(5)
        }
        assert threading.current_thread() not in workers
        assert all(worker.is_alive() for worker in workers)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_short_lived_threads_leave_no_loop_or_descriptor(self):
        loops = []

        def work():
            run_sync(asyncio.to_thread(int))
            loops.append(run_sync(_running_loop()))

        baseline = _open_fds()
        with warnings.catch_warnings(record=True) as caught:
            # An unclosed loop would be closed by the collector with a
            # ResourceWarning; the thread's exit must close it first.
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(20):
                batch = [threading.Thread(target=work) for _ in range(10)]
                for thread in batch:
                    thread.start()
                for thread in batch:
                    thread.join(JOIN_TIMEOUT_S)
                    assert not thread.is_alive()
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        assert len(loops) == 200
        assert all(loop.is_closed() for loop in loops)
        assert _open_fds() <= baseline


class TestEachCallSeesItsOwnContext:
    def test_tenant_scope_and_parent_span_of_this_call(self, tracer):
        async def observe():
            return current_tenant(), get_tracer().current_span()

        with tenant_scope("acme"), tracer.span("first") as first:
            assert run_sync(observe()) == ("acme", first)
        with tenant_scope("globex"), tracer.span("second") as second:
            assert run_sync(observe()) == ("globex", second)
        assert run_sync(observe()) == (None, None)

    def test_changes_inside_the_coroutine_stay_inside(self):
        probe = contextvars.ContextVar("probe", default="caller")

        async def set_inside():
            probe.set("coroutine")
            return probe.get()

        assert run_sync(set_inside()) == "coroutine"
        assert probe.get() == "caller"


class TestAbandonedTasks:
    def test_a_task_left_behind_is_cancelled_by_return(self):
        fates = []

        async def linger():
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                fates.append("cancelled")
                raise

        async def spawn_and_leave():
            task = asyncio.create_task(linger())
            await asyncio.sleep(0)
            return task

        task = run_sync(spawn_and_leave())
        assert fates == ["cancelled"]
        assert task.cancelled()
        assert not asyncio.all_tasks(run_sync(_running_loop()))

    def test_a_raising_coroutine_still_cancels_its_tasks(self):
        started = []

        async def spawn_and_fail():
            started.append(asyncio.create_task(asyncio.sleep(3600)))
            await asyncio.sleep(0)
            raise RuntimeError("after spawning")

        with pytest.raises(RuntimeError):
            run_sync(spawn_and_fail())
        assert started[0].cancelled()
