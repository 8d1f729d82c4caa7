"""Shared serving vocabulary.

What the scheduler (:class:`repro.serving.engine.RequestScheduler`)
and its clients share: the structured error types the API server maps
to HTTP statuses, the batch-compatibility :func:`shape_key`, and the
:class:`_Pending` request handle.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.llm.base import GenerationRequest, GenerationResponse

#: Bucket bounds for the coalesced batch-size histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class SchedulerError(Exception):
    """Base class for scheduler-originated failures."""


class SchedulerOverloaded(SchedulerError):
    """The admission queue is full; retry after ``retry_after`` seconds.

    Maps to a 429 at the API server boundary — structured backpressure
    instead of unbounded queueing. ``code`` is the stable machine
    identifier surfaced in error bodies; subclasses override it.
    """

    code = "scheduler_overloaded"

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(SchedulerError):
    """The request's deadline passed before a worker picked it up."""

    code = "deadline_exceeded"


class SchedulerClosed(SchedulerError):
    """The scheduler was shut down while the request was queued."""

    code = "scheduler_closed"


class StreamCancelled(SchedulerError):
    """The stream's consumer cancelled (disconnected) mid-generation.

    Recorded as the pending request's terminal error when the engine
    releases a cancelled member's slot; ``code`` is the stable
    identifier streaming endpoints surface.
    """

    code = "client_cancelled"


class StreamClosed(SchedulerError):
    """The scheduler shut down while the stream was still producing."""

    code = "stream_closed"


def shape_key(model: str, request: GenerationRequest) -> tuple:
    """Batch-compatibility key: requests coalesce only within a key.

    ``(model, task, max_tokens)`` is the contract — one model replica,
    one capability route, one token budget per fused execution.
    """
    return (model, request.task or "", int(request.max_tokens))


@dataclass
class _Pending:
    """One admitted request waiting for (or in) dispatch.

    ``done`` is the sync-facade bridge: blocking callers wait on the
    threading event, async callers register a callback (fired exactly
    once, on whatever thread resolves the request) that relays into
    their own event loop. ``stream`` is set for streaming submissions.
    ``context`` is the submitting caller's ``contextvars`` context: a
    cohort of one runs in it, so its spans stay in the caller's trace.
    """

    model: str
    request: GenerationRequest
    enqueued_at: float
    deadline: Optional[float]
    context: contextvars.Context
    done: threading.Event = field(default_factory=threading.Event)
    response: Optional[GenerationResponse] = None
    error: Optional[BaseException] = None
    stream: Optional[Any] = None
    _callbacks: list = field(default_factory=list)
    _cb_lock: threading.Lock = field(default_factory=threading.Lock)

    def resolve(self, response: GenerationResponse) -> None:
        self.response = response
        self._finish()

    def reject(self, error: BaseException) -> None:
        self.error = error
        self._finish()

    def _finish(self) -> None:
        with self._cb_lock:
            self.done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request settles (at most ``timeout``
        seconds); returns whether it has."""
        return self.done.wait(timeout)

    def add_done_callback(self, callback) -> None:
        """Invoke ``callback`` once the request settles (immediately
        if it already has). Registration races with resolution from
        another thread, hence the lock."""
        with self._cb_lock:
            if not self.done.is_set():
                self._callbacks.append(callback)
                return
        callback()
