"""Hierarchical request tracing with a context-local span stack.

The :class:`Tracer` produces :class:`~repro.obs.span.Span` trees: a
``with tracer.span("name")`` block opens a child of the current span
(tracked in a :class:`contextvars.ContextVar`, so parenting is correct
across threads *and* across the asyncio tasks the AWEL runner spawns),
closes it on exit — including exception exits, which mark the span
``status="error"`` and record the exception type — and retains finished
traces in a bounded ring buffer for ``repro trace`` / ``/trace``.

An optional ``exporter`` — any object with ``export(span)`` — receives
every finished span as it closes (benchmarks count spans with one);
:func:`repro.obs.export.dump_spans` writes retained traces to a file.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.obs.span import NOOP_SPAN, Span, TimingSpan, _current_span


class Tracer:
    """Builds span trees and retains the most recent finished traces."""

    def __init__(
        self,
        enabled: bool = True,
        max_traces: int = 64,
        exporter: Optional[Any] = None,
    ) -> None:
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        self.enabled = enabled
        self.exporter = exporter
        self._max_traces = max_traces
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: trace_id -> finished spans, oldest trace first (ring buffer).
        self._traces: OrderedDict[str, list[Span]] = OrderedDict()
        #: The trace whose root span closed last.
        self._last_root: Optional[str] = None
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def span(
        self,
        name: str,
        latency: Optional[Callable[[str], Callable]] = None,
        **attributes: Any,
    ) -> Any:
        """A context manager opening a child span of the current context
        for the duration of the ``with`` block.

        On a raising block the span still ends — with ``status="error"``
        and the exception class name recorded — and the exception
        propagates unchanged. ``latency`` maps the outcome — what the
        block passed to ``span.set_outcome``, else ``"ok"``, or
        ``"error"`` when it raised — to a bound histogram, which the
        exit feeds the span's duration in milliseconds. While the tracer is
        disabled the shared :data:`~repro.obs.span.NOOP_SPAN` is returned
        instead, or a :class:`~repro.obs.span.TimingSpan` when a
        ``latency`` is given, so the metric is recorded either way.
        """
        if not self.enabled:
            return NOOP_SPAN if latency is None else TimingSpan(latency)
        parent = _current_span.get()
        if parent is None:
            trace_id = f"trace-{next(self._trace_ids):04d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name, trace_id, next(self._span_ids), parent_id, attributes
        )
        span._tracer = self
        span._latency = latency
        return span

    def current_span(self) -> Optional[Span]:
        """The innermost open span in this context, if any."""
        return _current_span.get()

    # -- storage -----------------------------------------------------------

    def _record(self, span: Span) -> None:
        # Hot path: appending to an existing trace is a GIL-atomic
        # list.append, so the lock is only taken to open a new trace
        # (and evict the oldest one past the ring-buffer bound).
        # staticcheck: allow LCK003 - double-checked fast path; the
        # miss branch re-reads under the lock before writing.
        spans = self._traces.get(span.trace_id)
        if spans is None:
            with self._lock:
                spans = self._traces.get(span.trace_id)
                if spans is None:
                    spans = self._traces[span.trace_id] = []
                    while len(self._traces) > self._max_traces:
                        self._traces.popitem(last=False)
        spans.append(span)
        if span.parent_id is None:
            self._last_root = span.trace_id
        if self.exporter is not None:
            self.exporter.export(span)

    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans of one trace (children before parents,
        since parents finish last)."""
        with self._lock:
            return list(self._traces.get(trace_id, []))

    def last_trace(self) -> list[Span]:
        """The most recently *completed* trace: the one whose root span
        closed last. A trace that opened later but finished earlier
        (a fused batch's root, inside a longer request) is not it.
        """
        with self._lock:
            return list(self._traces.get(self._last_root, []))

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


#: Process-wide tracer used by all built-in instrumentation.
_tracer = Tracer()


def get_tracer() -> Tracer:
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests, custom exporters); returns the
    previous one so callers can restore it."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous
