"""A dedicated asyncio event loop on a daemon thread.

The serving engine and the RAG federation fan-out need an event loop
that exists independently of whatever thread the caller happens to be
on: applications call ``DBGPT.chat`` from plain threads, benchmarks
drive ``asyncio`` clients from their own loop, and the
continuous-batching engine must keep admitting work while every
caller blocks. :class:`LoopRunner` hosts that loop on one
daemon thread and exposes a thread-safe bridge in both directions:

- :meth:`run` — submit a coroutine from *any other* thread and block
  for its result (the sync-facade shim).
- :meth:`submit` — same, but returns the ``concurrent.futures.Future``
  instead of blocking.
- :attr:`loop` — for ``call_soon_threadsafe`` wakeups.

Coroutines run under the **caller's** ``contextvars`` context by
default, so spans opened inside stay parented to the caller's trace
and tenant scopes propagate — the same guarantee the thread-pool
fan-outs this replaces made with ``contextvars.copy_context().run``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import threading
import weakref
from typing import Any, Coroutine, Optional


class LoopRunnerClosed(RuntimeError):
    """The runner was shut down before (or while) the work ran."""


def _run_loop(
    loop: asyncio.AbstractEventLoop, ready: threading.Event
) -> None:
    asyncio.set_event_loop(loop)
    loop.call_soon(ready.set)
    try:
        loop.run_forever()
    finally:
        # Drain callbacks scheduled between stop() and here, then
        # close for real; tasks still pending are cancelled.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()


def _stop_loop(
    loop: asyncio.AbstractEventLoop, thread: threading.Thread
) -> None:
    """Stop ``loop`` and join the thread running it."""
    loop.call_soon_threadsafe(loop.stop)
    if thread is not threading.current_thread():
        thread.join(timeout=5.0)


class LoopRunner:
    """One asyncio loop on one daemon thread, shared by sync callers.

    A runner nobody closed stops when it is collected or, at the
    latest, at interpreter exit — before the daemon thread would be
    killed with tasks still pending on its loop. Neither the thread
    nor that finalizer refers back to the runner.
    """

    def __init__(self, name: str = "repro-loop") -> None:
        self._loop = asyncio.new_event_loop()
        self._closed = False
        ready = threading.Event()
        self._thread = threading.Thread(
            target=_run_loop, args=(self._loop, ready), name=name,
            daemon=True,
        )
        self._thread.start()
        ready.wait()
        self._stop = weakref.finalize(
            self, _stop_loop, self._loop, self._thread
        )

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def is_loop_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def submit(
        self,
        coro: Coroutine[Any, Any, Any],
        context: Optional[contextvars.Context] = None,
    ) -> concurrent.futures.Future:
        """Schedule ``coro`` on the loop; returns a waitable future.

        The coroutine's task runs under ``context`` (defaulting to a
        copy of the caller's), so spans and tenant scopes survive the
        thread hop.
        """
        if self._closed:
            coro.close()
            raise LoopRunnerClosed("loop runner is shut down")
        ctx = context if context is not None else contextvars.copy_context()
        done: concurrent.futures.Future = concurrent.futures.Future()

        def _start() -> None:
            if self._closed:
                coro.close()
                done.set_exception(
                    LoopRunnerClosed("loop runner is shut down")
                )
                return
            task = self._loop.create_task(coro, context=ctx)
            task.add_done_callback(lambda t: self._transfer(t, done))

        self._loop.call_soon_threadsafe(_start)
        return done

    @staticmethod
    def _transfer(
        task: "asyncio.Task[Any]", done: concurrent.futures.Future
    ) -> None:
        if task.cancelled():
            done.set_exception(LoopRunnerClosed("task cancelled"))
        elif task.exception() is not None:
            done.set_exception(task.exception())
        else:
            done.set_result(task.result())

    def run(
        self,
        coro: Coroutine[Any, Any, Any],
        timeout: Optional[float] = None,
    ) -> Any:
        """Run ``coro`` on the loop and block for its result.

        Must not be called from the loop thread itself — that would
        deadlock the loop waiting on its own future.
        """
        if self.is_loop_thread():
            coro.close()
            raise RuntimeError(
                "LoopRunner.run called from its own loop thread"
            )
        return self.submit(coro).result(timeout=timeout)

    def close(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop()


_shared_lock = threading.Lock()
_shared_runner: Optional[LoopRunner] = None


def get_loop_runner() -> LoopRunner:
    """The process-wide shared runner (lazily started, stopped at
    interpreter exit).

    Used by sync entry points that need an event loop briefly — the
    federation fan-out — so they don't pay a loop startup per call.
    """
    global _shared_runner
    with _shared_lock:
        if _shared_runner is None:
            _shared_runner = LoopRunner(name="repro-shared-loop")
        return _shared_runner
