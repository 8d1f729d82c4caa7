"""Process-wide injectable time and randomness sources, and the one
thread↔loop bridge (:func:`run_sync`).

Every layer that needs "what time is it" or "give me randomness" goes
through this module instead of calling :mod:`time` / :mod:`random`
directly, for two reasons:

- **Determinism** — tests and benchmarks freeze or script the clocks
  (:func:`set_clocks`) and seed the rng, so timing-dependent behavior
  (TTL expiry, latency histograms, retry jitter) is reproducible
  without sleeping. The serving scheduler, cache store and resilience
  policies already take injectable clocks per instance; this module is
  the same discipline for the cross-cutting instrumentation that has
  no instance to hang a parameter on.
- **Enforceability** — ``repro check`` (the ``repro.staticcheck``
  DET rules) flags any direct ``time.time()`` / ``time.perf_counter()``
  / ``datetime.now()`` / unseeded ``random.Random()`` call in ``src/``;
  this module is the single allowlisted home for the real OS clocks.

Referencing ``time.monotonic`` *as a default parameter value* (the
per-instance injectable-clock pattern) remains fine everywhere — only
inline calls are funneled through here.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import random
import threading
import time
from typing import Any, Callable, Coroutine, Optional, TypeVar

T = TypeVar("T")

Clock = Callable[[], float]

#: The process clocks. Swapped atomically (one tuple) by
#: :func:`set_clocks`; module state instead of instance state because
#: the callers are cross-cutting wrappers (spans, latency histograms)
#: with no construction site to inject through.
_clocks: tuple[Clock, Clock, Clock] = (
    time.perf_counter,
    time.monotonic,
    time.time,
)


def perf_clock() -> float:
    """High-resolution timestamp for latency measurement."""
    return _clocks[0]()


def mono_clock() -> float:
    """Monotonic timestamp for span start/end and TTL arithmetic."""
    return _clocks[1]()


def wall_clock() -> float:
    """Wall-clock epoch seconds — export timestamps only, never logic."""
    return _clocks[2]()


def set_clocks(
    perf: Optional[Clock] = None,
    mono: Optional[Clock] = None,
    wall: Optional[Clock] = None,
) -> tuple[Clock, Clock, Clock]:
    """Swap any of the process clocks (tests); returns the previous
    triple so callers can restore it in a ``finally``."""
    global _clocks
    previous = _clocks
    _clocks = (
        perf or previous[0],
        mono or previous[1],
        wall or previous[2],
    )
    return previous


def default_rng(seed: int = 0) -> random.Random:
    """A seeded generator for call sites that were not handed one.

    Unseeded ``random.Random()`` draws entropy from the OS, which makes
    retry jitter (and anything else downstream) irreproducible; a
    fixed default seed keeps standalone construction deterministic
    while every production wiring path still injects its own rng.
    """
    return random.Random(seed)


class _ThreadLoop:
    """One thread's loop; dropped with the thread's locals when the
    thread exits, which closes the loop (selector, self-pipe, executor)."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()

    def __del__(self) -> None:
        self.loop.close()


_thread_loops = threading.local()


def run_sync(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion from synchronous code.

    The one sync shim over every async call path (``WorkflowRunner.run``,
    ``DataAnalysisTeam.run``). With no loop running it is a task on the
    calling thread's own loop (kept, with its executor, until the thread
    exits) in the caller's context at this call (tenant scope, parent
    span); tasks it leaves behind are cancelled before it returns, as
    ``asyncio.run`` does. Called from inside a running loop (an operator
    of one DAG synchronously invoking another workflow) the coroutine
    runs on a private loop in a helper thread, with the caller's context
    carried over so its spans stay parented to the enclosing trace.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        owner = getattr(_thread_loops, "owner", None)
        if owner is None:
            owner = _thread_loops.owner = _ThreadLoop()
        loop = owner.loop
        try:
            return loop.run_until_complete(loop.create_task(coro))
        finally:
            leftovers = asyncio.all_tasks(loop)
            for task in leftovers:
                task.cancel()
            if leftovers:
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
    context = contextvars.copy_context()
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(context.run, asyncio.run, coro).result()
