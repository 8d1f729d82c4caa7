"""repro.obs — end-to-end observability: tracing, metrics, profiling.

The three pieces, all dependency-free (see ``docs/observability.md``):

- :class:`Tracer` — hierarchical spans over every chat request, with a
  context-local current-span stack that is correct across threads and
  asyncio tasks, a bounded ring buffer of finished traces, and
  JSON-lines dump/reload (:mod:`repro.obs.export`).
- :class:`MetricsRegistry` — unified counters, gauges and fixed-bucket
  histograms; every layer publishes here under documented names.
- :mod:`repro.obs.render` — the span-tree pretty printer behind the
  ``repro trace`` CLI and the ``/trace`` REPL command.

>>> from repro.obs import get_tracer
>>> with get_tracer().span("demo", layer="docs") as span:
...     span.set_attribute("ok", True)
"""

from repro.obs.export import dump_spans, group_traces, load_spans
from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricHandle,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.render import render_trace, span_tree, stage_timings
from repro.obs.span import NOOP_SPAN, STATUS_ERROR, STATUS_OK, Span
from repro.obs.tracer import Tracer, get_tracer, set_tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricHandle",
    "MetricsRegistry",
    "NOOP_SPAN",
    "STATUS_ERROR",
    "STATUS_OK",
    "Span",
    "Tracer",
    "dump_spans",
    "get_registry",
    "get_tracer",
    "group_traces",
    "load_spans",
    "render_trace",
    "set_registry",
    "set_tracer",
    "span_tree",
    "stage_timings",
]
