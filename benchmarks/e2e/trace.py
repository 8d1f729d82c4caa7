"""Per-layer tracing from outside the program.

A *layer* is one package under ``src/repro``. The benchmark times each
layer by wrapping its public entry points from here — no file in
``src/`` changes — and recording one :class:`Span` per call: name,
layer, start, end, the span that caused it and the id of the benchmark
operation it belongs to. The parent is tracked in a context variable,
so it follows work into pool threads and asyncio tasks wherever the
program copies its context (which it does for its own tracer).

A layer's **self time** is its spans' duration minus the *union* of the
intervals their children cover. Two boundaries need a rule of their own:

- ``cache``: ``CacheManager.cached`` runs the caller's compute callback
  on a miss. The callback is wrapped in a span charged to the *calling*
  layer, so ``cache.self_ms`` is lookup cost only.
- ``serving`` → ``llm``: the continuous engine runs model steps on its
  own loop under a fresh context, one step serving many requests, so
  model spans have no parent. A serving span is charged only for the
  part of its interval during which no such model span ran
  (``serving.wait_ms``); the overlapped part is reported as
  ``llm.blocking_ms`` — latency requests spent behind the model, which
  exceeds ``llm.busy_ms`` by the batching factor.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import itertools
import json
import operator
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "e2e_bench_span", default=None
)
_OP: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "e2e_bench_op", default=None
)


@dataclass(slots=True)
class Span:
    """One timed call into a layer."""

    span_id: int
    parent: Optional[int]
    op: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    error: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.span_id,
                "parent": self.parent,
                "op": self.op,
                "layer": self.layer,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "error": self.error,
            }
        )


class Recorder:
    """Keeps finished spans in memory until the round ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._clock = clock

    @staticmethod
    def set_op(op_id: Optional[int]) -> None:
        """Tag every span opened from this context with ``op_id``."""
        _OP.set(op_id)

    def open(self, layer: str, name: str) -> tuple[Span, Optional[Span]]:
        parent = _CURRENT.get()
        span = Span(
            next(self._ids),
            parent.span_id if parent is not None else None,
            _OP.get(),
            layer,
            name,
            self._clock(),
        )
        _CURRENT.set(span)
        return span, parent

    def close(self, span: Span, parent: Optional[Span]) -> None:
        span.end = self._clock()
        # Restored by value, not by token: an async generator may be
        # finalised from a different context than the one that opened it.
        _CURRENT.set(parent)
        self.spans.append(span)

    def export_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(span.to_json() + "\n")
        return len(self.spans)


# -- wrappers ------------------------------------------------------------


def wrap(
    recorder: Recorder,
    layer: str,
    name: Callable[..., str] | str,
    fn: Callable,
) -> Callable:
    """``fn`` with a span around every call (sync, coroutine or async
    generator alike). ``name`` may be a function of the call's arguments."""
    label = name if callable(name) else (lambda *_a, **_k: name)

    if inspect.isasyncgenfunction(fn):

        @functools.wraps(fn)
        async def agen_wrapper(*args: Any, **kwargs: Any):
            span, parent = recorder.open(layer, label(*args, **kwargs))
            try:
                async for item in fn(*args, **kwargs):
                    yield item
            except BaseException:
                span.error = True
                raise
            finally:
                recorder.close(span, parent)

        return agen_wrapper

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any):
            span, parent = recorder.open(layer, label(*args, **kwargs))
            try:
                return await fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                recorder.close(span, parent)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        span, parent = recorder.open(layer, label(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            recorder.close(span, parent)

    return wrapper


def _wrap_cached(recorder: Recorder, cached: Callable) -> Callable:
    """``CacheManager.cached`` with its compute callback charged to the
    layer that asked."""

    @functools.wraps(cached)
    def wrapper(self, tier, key, compute, **attributes):
        span, parent = recorder.open("cache", f"cache.{tier}")
        owner = parent.layer if parent is not None else "cache"

        def charged_compute():
            inner, outer = recorder.open(owner, f"{owner}.compute")
            try:
                return compute()
            except BaseException:
                inner.error = True
                raise
            finally:
                recorder.close(inner, outer)

        try:
            return cached(self, tier, key, charged_compute, **attributes)
        except BaseException:
            span.error = True
            raise
        finally:
            recorder.close(span, parent)

    return wrapper


def _wrap_recall(recorder: Recorder, recall: Callable) -> Callable:
    """``AgentMemory.recall_similar`` with the outcome in the span name,
    so the useful share of recalls (``agents.recall_ratio``) is countable."""

    @functools.wraps(recall)
    def wrapper(*args: Any, **kwargs: Any):
        span, parent = recorder.open("agents", "agents.recall.miss")
        try:
            found = recall(*args, **kwargs)
            if found is not None:
                span.name = "agents.recall.hit"
            return found
        except BaseException:
            span.error = True
            raise
        finally:
            recorder.close(span, parent)

    return wrapper


_READ_KEYWORDS = ("SELECT", "WITH", "EXPLAIN")


def statement_kind(sql: str) -> str:
    """``"read"`` or ``"write"`` from the statement's first keyword."""
    head = sql.lstrip()[:7].upper()
    return "read" if head.startswith(_READ_KEYWORDS) else "write"


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def program_targets() -> list[tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    Imported lazily so this module (and its unit tests) load without
    ``repro`` on the path.
    """
    import repro.apps.chat2db as chat2db_module
    import repro.apps.text2sql as text2sql_module
    from repro.agents.team import DataAnalysisTeam
    from repro.apps.base import Application
    from repro.awel.runner import WorkflowRunner
    from repro.datasources.engine_source import EngineSource
    from repro.llm.base import BatchExecution, LanguageModel
    from repro.rag.knowledge_base import KnowledgeBase
    from repro.server.service import DbGptServer
    from repro.serving.engine import RequestScheduler
    from repro.smmf.api_server import ApiServer
    from repro.smmf.client import LLMClient
    from repro.tenancy.fabric import TenantFabric

    targets: list[tuple[str, Any, str]] = [
        ("server", DbGptServer, "handle"),
        ("tenancy", TenantFabric, "chat"),
        ("tenancy", TenantFabric, "open_session"),
        ("awel", WorkflowRunner, "run"),
        ("awel", WorkflowRunner, "run_async"),
        ("agents", DataAnalysisTeam, "run"),
        ("agents", DataAnalysisTeam, "arun"),
        ("rag", KnowledgeBase, "retrieve"),
        ("rag", KnowledgeBase, "build_context"),
        ("analysis", text2sql_module, "gate_sql"),
        ("analysis", chat2db_module, "gate_sql"),
        ("smmf", LLMClient, "generate"),
        ("smmf", LLMClient, "agenerate"),
        ("smmf", LLMClient, "astream"),
        ("smmf", ApiServer, "handle"),
        ("smmf", ApiServer, "ahandle"),
        ("serving", RequestScheduler, "schedule"),
        ("serving", RequestScheduler, "aschedule"),
        # Streams are admitted through their own entry point; without it
        # their wait would be charged to ``smmf``.
        ("serving", RequestScheduler, "astream"),
        ("llm", BatchExecution, "step"),
        ("datasources", EngineSource, "query"),
        ("datasources", EngineSource, "tables"),
        ("datasources", EngineSource, "sample_rows"),
    ]
    for app in _all_subclasses(Application):
        if "chat" in vars(app):
            targets.append(("apps", app, "chat"))
    for model in [LanguageModel, *_all_subclasses(LanguageModel)]:
        for attribute in ("generate", "generate_batch"):
            if attribute in vars(model):
                targets.append(("llm", model, attribute))
    return targets


class Installation:
    """The set of patched attributes; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, bool, Any]] = []

    def patch(self, owner: Any, attribute: str, build: Callable) -> None:
        owned = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._patched.append(
            (owner, attribute, owned, vars(owner).get(attribute))
        )
        setattr(owner, attribute, build(original))

    def uninstall(self) -> None:
        for owner, attribute, owned, original in reversed(self._patched):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every program entry point; call before the traced region."""
    from repro.agents.memory import AgentMemory
    from repro.cache.manager import CacheManager
    from repro.sqlengine.database import Database

    installation = Installation()
    for layer, owner, attribute in program_targets():
        # Owners are classes or (for ``gate_sql``) the importing module.
        owner_name = owner.__name__.rsplit(".", 1)[-1]
        label = f"{layer}.{owner_name}.{attribute}"
        installation.patch(
            owner,
            attribute,
            lambda fn, layer=layer, label=label: wrap(
                recorder, layer, label, fn
            ),
        )
    installation.patch(
        CacheManager, "cached", lambda fn: _wrap_cached(recorder, fn)
    )
    installation.patch(
        AgentMemory, "recall_similar", lambda fn: _wrap_recall(recorder, fn)
    )
    installation.patch(
        Database,
        "execute",
        lambda fn: wrap(
            recorder,
            "sqlengine",
            lambda _db, sql, *_a, **_k: f"sqlengine.{statement_kind(sql)}",
            fn,
        ),
    )
    return installation


# -- analysis ------------------------------------------------------------


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Sorted, non-overlapping union of ``intervals``."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _clip(
    merged: list[tuple[float, float]], start: float, end: float
) -> list[tuple[float, float]]:
    """The part of a merged interval list inside ``[start, end]``."""
    first = bisect.bisect_right(merged, (start, float("inf"))) - 1
    clipped = []
    for low, high in merged[max(first, 0):]:
        if low >= end:
            break
        low, high = max(low, start), min(high, end)
        if high > low:
            clipped.append((low, high))
    return clipped


def _length(intervals: Iterable[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


@dataclass
class Breakdown:
    """Per-span self times plus the serving/llm boundary accounting."""

    self_s: dict[int, float]
    #: Seconds serving spans spent overlapped by parentless model spans.
    blocking_s: float


def self_times(spans: list[Span]) -> Breakdown:
    """Self time per span: duration minus the union of child intervals.

    Children are clipped to their parent (a task may outlive the call
    that started it). Serving spans additionally give up the part of
    their interval covered by parentless ``llm`` spans — see the
    module docstring.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    model_runs = merge_intervals(
        (span.start, span.end)
        for span in spans
        if span.layer == "llm" and span.parent is None
    )
    self_s: dict[int, float] = {}
    blocking = 0.0
    for span in spans:
        own = _clip(
            merge_intervals(children.get(span.span_id, ())),
            span.start,
            span.end,
        )
        covered = _length(own)
        if span.layer == "serving" and model_runs:
            behind_model = _clip(model_runs, span.start, span.end)
            total = _length(merge_intervals([*own, *behind_model]))
            blocking += total - covered
            covered = total
        self_s[span.span_id] = (span.end - span.start) - covered
    return Breakdown(self_s, blocking)


@dataclass
class LayerRow:
    calls: int = 0
    self_ms: float = 0.0
    errors: int = 0


def table(
    spans: list[Span],
    breakdown: Breakdown,
    key: Callable[[Span], str] = operator.attrgetter("layer"),
) -> dict[str, LayerRow]:
    """Calls, summed self time and errors per layer (or per any ``key``,
    e.g. ``operator.attrgetter("name")`` for one row per entry point)."""
    rows: dict[str, LayerRow] = {}
    for span in spans:
        row = rows.setdefault(key(span), LayerRow())
        row.calls += 1
        row.self_ms += breakdown.self_s[span.span_id] * 1000.0
        row.errors += span.error
    return rows


def render_layer_table(
    rows: dict[str, LayerRow], blocking_ms: float, latency_ms: float
) -> str:
    """The per-layer table printed after a traced round.

    ``latency_ms`` is the summed latency of the round's operations; the
    last line shows how much of it the self times account for.
    """
    header = f"{'layer':<14}{'calls':>10}{'self ms':>14}{'share':>9}"
    lines = [header, "-" * len(header)]
    # Model time is a resource count, not latency: requests experience
    # it through ``llm.blocking_ms``, so it stays out of the sum.
    accounted = blocking_ms + sum(
        row.self_ms for layer, row in rows.items() if layer != "llm"
    )
    for layer in sorted(rows, key=lambda key: -rows[key].self_ms):
        row = rows[layer]
        share = row.self_ms / latency_ms if latency_ms else 0.0
        note = "  (busy; not in sum)" if layer == "llm" else ""
        lines.append(
            f"{layer:<14}{row.calls:>10}{row.self_ms:>14.1f}{share:>9.1%}{note}"
        )
    share = blocking_ms / latency_ms if latency_ms else 0.0
    lines.append(
        f"{'llm.blocking':<14}{'':>10}{blocking_ms:>14.1f}{share:>9.1%}"
    )
    ratio = accounted / latency_ms if latency_ms else 0.0
    lines.append(
        f"{'sum / latency':<14}{'':>10}{accounted:>14.1f}{ratio:>9.1%}"
    )
    return "\n".join(lines)
