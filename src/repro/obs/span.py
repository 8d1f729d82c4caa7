"""The span model: one timed unit of work inside a trace.

A :class:`Span` records what ran (``name``), where it sits in the
request tree (``trace_id``/``span_id``/``parent_id``), when it ran
(monotonic ``start``/``end``) and how it went (``status`` plus the
exception type on error paths). A span given a latency recorder feeds
its own duration, on exit, to the histogram the recorder picks for the
span's outcome (set by the block, ``error`` if it raised), so a block
that is both traced and timed reads the clock twice. The span is its own
context manager — ``with tracer.span(...)`` enters it onto the
context-local stack and closing (including on the exception path)
happens in ``__exit__`` — so the hot path pays no extra wrapper
allocation per span.
"""

from __future__ import annotations

import contextvars
from typing import Any, Callable, Optional

from repro.runtime import mono_clock

#: Span status values. A span starts ``ok`` and flips to ``error`` when
#: the traced block raises; there is deliberately no "unset" state — an
#: ended span always has a definite outcome.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: The innermost open span of the current thread/task. A ContextVar
#: (not threading.local) so each asyncio task created while a span is
#: open inherits that span as its parent without sharing mutable state.
_current_span: contextvars.ContextVar[Optional["Span"]] = (
    contextvars.ContextVar("repro_obs_current_span", default=None)
)

#: The innermost open span in this context, or None (one C call).
current_span = _current_span.get


class Span:
    """One node of a request's trace tree.

    A plain ``__slots__`` class: a span is built on every traced
    operation, and this costs about half what a dataclass's generated
    ``__init__`` with default factories does.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end",
        "status", "attributes", "error_type", "_tracer", "_token",
        "_latency", "_outcome",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: Any,
        parent_id: Optional[Any] = None,
        attributes: Optional[dict[str, Any]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
        status: str = STATUS_OK,
        error_type: Optional[str] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        #: Unique within the process; an int from the tracer's counter.
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = mono_clock() if start is None else start
        self.end = end
        self.status = status
        self.attributes = {} if attributes is None else attributes
        #: Exception class name when ``status == "error"``.
        self.error_type = error_type
        #: Owning tracer + context token, set by ``Tracer.span`` / enter.
        self._tracer: Any = None
        self._token: Any = None
        #: Maps the outcome to the bound histogram that the exit feeds
        #: this span's duration in milliseconds.
        self._latency: Optional[Callable[[str], Callable]] = None
        self._outcome = STATUS_OK

    @property
    def ended(self) -> bool:
        return self.end is not None

    @property
    def duration_ms(self) -> float:
        """Elapsed milliseconds; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def set_outcome(self, outcome: str) -> None:
        """The latency's outcome label (a raise records ``error``)."""
        self._outcome = outcome

    def finish(
        self,
        status: Optional[str] = None,
        error_type: Optional[str] = None,
    ) -> None:
        """Close the span (idempotent — the first end time wins)."""
        if self.end is None:
            self.end = mono_clock()
        if status is not None:
            self.status = status
        if error_type is not None:
            self.error_type = error_type

    # -- context manager protocol -----------------------------------------

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # ``finish`` inlined: this runs once per span.
        if self.end is None:
            self.end = mono_clock()
        if exc_type is not None:
            self.status = self._outcome = STATUS_ERROR
            self.error_type = exc_type.__name__
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if self._latency is not None:
            self._latency(self._outcome)((self.end - self.start) * 1000.0)
        if self._tracer is not None:
            self._tracer._record(self)
        return False

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly rendering used by :func:`~repro.obs.dump_spans`."""
        payload: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": self.attributes,
        }
        if self.error_type:
            payload["error_type"] = self.error_type
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start=payload["start"],
            end=payload.get("end"),
            status=payload.get("status", STATUS_OK),
            attributes=dict(payload.get("attributes", {})),
            error_type=payload.get("error_type"),
        )


class NoopSpan:
    """The do-nothing span handed out while tracing is disabled.

    Shares the attribute-mutation and context-manager surface of
    :class:`Span` so instrumented code never branches on whether
    tracing is on; all methods are empty and one shared instance is
    reused.
    """

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = STATUS_OK
    attributes: dict[str, Any] = {}
    error_type = None
    duration_ms = 0.0
    ended = True

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def set_outcome(self, outcome: str) -> None:
        pass

    def finish(self, status=None, error_type=None) -> None:
        pass

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared instance used by every disabled-tracer code path.
NOOP_SPAN = NoopSpan()


class TimingSpan(NoopSpan):
    """What a disabled tracer hands out for a span that carries a
    latency recorder: no trace and no parent, only the latency, which
    the exit observes under the outcome as an enabled span's would."""

    _outcome = STATUS_OK

    def __init__(self, latency: Callable[[str], Callable]) -> None:
        self._latency = latency
        self.start = mono_clock()

    def set_outcome(self, outcome: str) -> None:
        self._outcome = outcome

    def __exit__(self, exc_type, exc, tb) -> bool:
        outcome = self._outcome if exc_type is None else STATUS_ERROR
        self._latency(outcome)((mono_clock() - self.start) * 1000.0)
        return False
